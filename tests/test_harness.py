import os
import threading

import numpy as np
import pytest

from satavit import ModelConfig, engine, harness, parallel, random_init, sata
from satavit.engine import forward
from satavit.harness import (
    SELFTEST_HEADER,
    STABILITY_HEADER,
    STATS_HEADER,
    SWEEP_HEADER,
    StabilityRecord,
    SweepRecord,
    averaged_stability_report,
    render_csv,
    selftest,
    stability_report,
    stats_report,
    sweep,
    write_csv,
)
from satavit.images import (
    CORRUPTION_KINDS,
    CorruptionSpec,
    corrupt,
    load_image,
    random_image,
    write_raw_image,
)
from satavit.rng import SplitMix64
from satavit.tensorops import cosine_similarity

CFG = ModelConfig(depth=4, dim=16, heads=2, patch=2, image=8, num_classes=4,
                  gamma=0.5, alpha=1.0)


@pytest.fixture(scope="module")
def model():
    return random_init(CFG, seed=2024)


@pytest.fixture(scope="module")
def image():
    return random_image(CFG, seed=55)


class TestCorrupt:
    def test_deterministic_per_seed(self, image):
        spec = CorruptionSpec("gaussian_noise", 3, seed=9)
        assert np.array_equal(corrupt(image, spec), corrupt(image, spec))

    def test_seeds_differ(self, image):
        a = corrupt(image, CorruptionSpec("gaussian_noise", 3, seed=1))
        b = corrupt(image, CorruptionSpec("gaussian_noise", 3, seed=2))
        assert not np.array_equal(a, b)

    def test_contrast_fixed_point_on_constant(self):
        img = np.full((8, 8, 1), 0.37)
        out = corrupt(img, CorruptionSpec("contrast", 5, seed=0))
        assert np.allclose(out, img, atol=1e-15)

    def test_contrast_shrinks_toward_mean(self):
        img = np.zeros((4, 4))
        img[: 2] = 1.0
        out = corrupt(img, CorruptionSpec("contrast", 5, seed=0))
        # factor 1 - 0.12*5 = 0.4 around mean 0.5
        assert np.allclose(out[:2], 0.5 + 0.5 * 0.4, atol=1e-12)
        assert np.allclose(out[2:], 0.5 - 0.5 * 0.4, atol=1e-12)

    def test_gaussian_sigma_midgray(self):
        img = np.full((128, 128), 0.5)
        out = corrupt(img, CorruptionSpec("gaussian_noise", 1, seed=3))
        noise = out - img
        # sigma = 0.04; clamping is negligible around 0.5
        assert abs(noise.std() - 0.04) / 0.04 < 0.05

    def test_gaussian_sigma_zero_image_clamped(self):
        img = np.zeros((128, 128))
        out = corrupt(img, CorruptionSpec("gaussian_noise", 1, seed=3))
        # max(N(0, 0.04), 0) has std 0.04 * sqrt(1/2 - 1/(2*pi)) = 0.0233528
        assert out.min() >= 0.0
        assert abs(out.std() - 0.023352774804141958) / 0.023352774804141958 < 0.03

    def test_impulse_flips_expected_fraction(self):
        img = np.full((100, 100), 0.5)
        out = corrupt(img, CorruptionSpec("impulse_noise", 4, seed=5))
        changed = np.count_nonzero(out != img)
        assert changed == round(0.01 * 4 * img.size)
        assert set(np.unique(out[out != img])) <= {0.0, 1.0}

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_impulse_hits_the_permutations_head(self, image, seed):
        gray = image.reshape(CFG.image, CFG.image)
        img = np.stack([gray, 1.0 - gray, gray * 0.5], axis=2)
        for severity in range(1, 6):
            gen = SplitMix64(seed)
            k = int(round(0.01 * severity * img.size))
            hit = gen.permutation(img.size)[:k]
            want = img.reshape(-1).copy()
            want[hit] = (gen.next_uint64(k) & np.uint64(1)).astype(np.float64)
            got = corrupt(img, CorruptionSpec("impulse_noise", severity, seed=seed))
            assert got.tobytes() == np.clip(want, 0.0, 1.0).reshape(img.shape).tobytes()

    def test_box_blur_constant_invariant(self):
        img = np.full((10, 10), 0.6)
        out = corrupt(img, CorruptionSpec("box_blur", 2, seed=0))
        assert np.allclose(out, img, atol=1e-12)

    def test_box_blur_smooths(self):
        rng = np.random.default_rng(8)
        img = rng.uniform(size=(32, 32))
        out = corrupt(img, CorruptionSpec("box_blur", 3, seed=0))
        assert out.std() < img.std()

    def test_output_clamped(self, image):
        for kind in CORRUPTION_KINDS:
            out = corrupt(image, CorruptionSpec(kind, 5, seed=1))
            assert out.min() >= 0.0 and out.max() <= 1.0
            assert out.shape == image.shape

    def test_severity_out_of_range(self):
        with pytest.raises(ValueError, match="severity"):
            CorruptionSpec("gaussian_noise", 6, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            CorruptionSpec("speckle", 1, seed=0)

    @pytest.mark.parametrize("field,severity,seed", [
        ("severity", 2.5, 0), ("severity", 3.0, 0), ("severity", "3", 0),
        ("severity", True, 0), ("seed", 3, 1.5), ("seed", 3, "1"), ("seed", 3, False),
    ])
    def test_non_integer_severity_or_seed_rejected_naming_it(self, field, severity, seed):
        with pytest.raises(ValueError, match=f"{field!r} must be an integer"):
            CorruptionSpec("box_blur", severity, seed=seed)

    def test_numpy_integers_accepted(self, image):
        spec = CorruptionSpec("box_blur", np.int64(2), seed=np.uint64(4))
        assert np.array_equal(corrupt(image, spec), corrupt(image, CorruptionSpec("box_blur", 2, 4)))


class TestStability:
    def test_clean_clean_deltas_exactly_one(self, model, image):
        records = stability_report(model, image, spec=None)
        assert len(records) == CFG.depth
        for r in records:
            assert r.delta_attention == 1.0
            assert r.delta_sata == 1.0

    def test_one_record_per_block_and_range(self, model, image):
        spec = CorruptionSpec("impulse_noise", 3, seed=4)
        records = stability_report(model, image, spec)
        assert len(records) == CFG.depth
        assert [r.block_index for r in records] == list(range(CFG.depth))
        for r in records:
            assert -1.0 <= r.delta_attention <= 1.0
            assert -1.0 <= r.delta_sata <= 1.0

    def test_csv_schema_and_determinism(self, model, image, tmp_path):
        spec = CorruptionSpec("box_blur", 2, seed=4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (p1, p2):
            write_csv(path, STABILITY_HEADER, stability_rows(stability_report(model, image, spec)))
        text = p1.read_text(encoding="utf-8")
        assert text.splitlines()[0] == ",".join(STABILITY_HEADER)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()

    def test_averaged_report(self, model, image):
        records = averaged_stability_report(model, image, seed=6)
        assert len(records) == CFG.depth
        for r in records:
            assert -1.0 <= r.delta_attention <= 1.0
            assert -1.0 <= r.delta_sata <= 1.0


def stability_rows(records) -> list[list]:
    return [[r.block_index, r.delta_attention, r.delta_sata] for r in records]


# ---------------------------------------------------------------------------
# straight-line references: every report as a plain sequence of full forwards


def reference_averaged_stability(model, image, seed, cfg=None) -> list[list]:
    """A clean and a corrupted forward for each of the 20 pairs."""
    pair_seeds = SplitMix64(seed).next_uint64(len(CORRUPTION_KINDS) * 5)
    sums_att = sums_sata = None
    count = 0
    for kind in CORRUPTION_KINDS:
        for severity in range(1, 6):
            spec = CorruptionSpec(kind=kind, severity=severity, seed=int(pair_seeds[count]))
            _, clean = forward(image, model, cfg=cfg, trace_scores=True)
            _, corr = forward(corrupt(image, spec), model, cfg=cfg, trace_scores=True)
            att = [cosine_similarity(c.cls_attention, x.cls_attention) for c, x in zip(clean, corr)]
            sata = [cosine_similarity(c.scores.s, x.scores.s) for c, x in zip(clean, corr)]
            if sums_att is None:
                sums_att = np.zeros(len(att))
                sums_sata = np.zeros(len(sata))
            sums_att += att
            sums_sata += sata
            count += 1
    return [[i, float(sums_att[i] / count), float(sums_sata[i] / count)]
            for i in range(len(sums_att))]


def reference_stability(model, image, spec, cfg=None) -> list[list]:
    """One clean and one corrupted forward (the clean image again without a spec)."""
    _, clean = forward(image, model, cfg=cfg, trace_scores=True)
    _, corr = forward(image if spec is None else corrupt(image, spec), model, cfg=cfg,
                      trace_scores=True)
    return [[c.block_index,
             cosine_similarity(c.cls_attention, x.cls_attention),
             cosine_similarity(c.scores.s, x.scores.s)]
            for c, x in zip(clean, corr)]


def reference_stats(model, images, cfg=None) -> list[list]:
    """One forward per image; each scalar column sums in its own array, in image order."""
    run_cfg = cfg if cfg is not None else model.config
    depth = run_cfg.depth
    keys = ("mean_s", "abs_median_s", "lower", "upper", "n_a", "n_b", "ffn_tokens", "ffn_flops")
    acc = {key: np.zeros(depth) for key in keys}
    hists = np.zeros((depth, harness.HIST_BINS), dtype=np.int64)
    for image in images:
        _, traces = forward(image, model, cfg=run_cfg, trace_scores=True)
        for b, tr in enumerate(traces):
            acc["mean_s"][b] += tr.scores.mean_s
            acc["abs_median_s"][b] += tr.scores.abs_median_s
            acc["lower"][b] += tr.bounds[0]
            acc["upper"][b] += tr.bounds[1]
            acc["n_a"][b] += tr.n_a
            acc["n_b"][b] += tr.n_b
            acc["ffn_tokens"][b] += tr.ffn_tokens
            acc["ffn_flops"][b] += tr.ffn_flops
            clipped = np.clip(tr.scores.s, *harness.HIST_RANGE)
            counts, _ = np.histogram(clipped, bins=harness.HIST_BINS, range=harness.HIST_RANGE)
            hists[b] += counts
    n = len(images)
    return [[b] + [float(acc[key][b] / n) for key in keys] + [int(c) for c in hists[b]]
            for b in range(depth)]


def reference_sweep(model, images, param, values, cfg=None):
    """The stage-off baseline plus one full forward per value, per image."""
    base_cfg = cfg if cfg is not None else model.config
    baselines = [forward(img, model, cfg=base_cfg.with_overrides(sata_enabled=False))[0]
                 for img in images]
    rows = []
    for value in values:
        run_cfg = base_cfg.with_overrides(sata_enabled=True, **{param: float(value)})
        flops_total = 0.0
        drift_total = 0.0
        for img, base_logits in zip(images, baselines):
            logits, traces = forward(img, model, cfg=run_cfg)
            flops_total += sum(tr.ffn_flops for tr in traces)
            drift_total += float(np.linalg.norm(logits - base_logits))
        n = len(images)
        rows.append([float(value), flops_total / n, drift_total / n])
    return rows


GAMMAS = [0.0, 0.25, 0.5, 0.7, 0.9, 1.0]


class TestReportsMatchReference:
    """Float values bitwise equal to the references', CSVs byte-identical."""

    @pytest.mark.parametrize("kind", [None, *CORRUPTION_KINDS])
    def test_stability(self, model, image, kind):
        spec = None if kind is None else CorruptionSpec(kind, 3, seed=7)
        rows = stability_rows(stability_report(model, image, spec))
        want = reference_stability(model, image, spec)
        assert rows == want
        assert render_csv(STABILITY_HEADER, rows) == render_csv(STABILITY_HEADER, want)

    @pytest.mark.parametrize("sata_enabled", [True, False])
    def test_stats(self, model, sata_enabled):
        cfg = CFG.with_overrides(sata_enabled=sata_enabled)
        images = [random_image(CFG, seed) for seed in (1, 2, 3)]
        rows = stats_report(model, images, cfg=cfg)
        want = reference_stats(model, images, cfg=cfg)
        assert rows == want
        assert render_csv(STATS_HEADER, rows) == render_csv(STATS_HEADER, want)

    @pytest.mark.parametrize("seed", [0, 6])
    def test_averaged_stability(self, model, image, seed, tmp_path):
        out = tmp_path / "avg.csv"
        rows = stability_rows(averaged_stability_report(model, image, seed=seed))
        write_csv(out, STABILITY_HEADER, rows)
        want = reference_averaged_stability(model, image, seed)
        assert rows == want
        assert out.read_bytes() == render_csv(STABILITY_HEADER, want).encode("utf-8")

    @pytest.mark.parametrize("param,values", [
        ("alpha", [0.5, 0.75, 1.0, 2.0, 1e9]),
        ("gamma", GAMMAS),
    ])
    @pytest.mark.parametrize("stored_sata", [True, False])
    def test_sweep(self, param, values, stored_sata, tmp_path):
        stage_model = random_init(CFG.with_overrides(sata_enabled=stored_sata), seed=2024)
        images = [random_image(CFG, 55), random_image(CFG, 56)]
        out = tmp_path / "sweep.csv"
        records = sweep(stage_model, images, param, values)
        rows = [[r.value, r.total_flops, r.logit_drift] for r in records]
        write_csv(out, SWEEP_HEADER, rows)
        want = reference_sweep(stage_model, images, param, values)
        assert rows == want
        assert out.read_bytes() == render_csv(SWEEP_HEADER, want).encode("utf-8")

    def test_sweep_run_config_overrides_stored_one(self, model, image, tmp_path):
        cfg = CFG.with_overrides(sata_enabled=False, gamma=0.25, alpha=0.5)
        out = tmp_path / "sweep.csv"
        records = sweep(model, [image], "alpha", [1.0, 1.5, 0.5], cfg=cfg)
        write_csv(out, SWEEP_HEADER, [[r.value, r.total_flops, r.logit_drift] for r in records])
        want = reference_sweep(model, [image], "alpha", [1.0, 1.5, 0.5], cfg=cfg)
        assert out.read_bytes() == render_csv(SWEEP_HEADER, want).encode("utf-8")


@pytest.fixture
def block_evals(monkeypatch):
    """Counts block evaluations: every block runs ``engine.mhsa`` exactly once
    per image, on one image's stream or on a stack of them."""
    calls = []
    original = engine.mhsa

    def counted(x, *args, **kwargs):
        calls.extend([1] * (len(x) if np.ndim(x) == 3 else 1))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(engine, "mhsa", counted)
    return calls


class TestBlockEvaluations:
    def test_averaged_stability_runs_21_forwards(self, model, image, block_evals):
        averaged_stability_report(model, image, seed=0)
        assert len(block_evals) == 21 * CFG.depth

    def test_self_comparison_runs_one_forward(self, model, image, block_evals):
        stability_report(model, image, spec=None)
        assert len(block_evals) == CFG.depth

    def test_corrupted_comparison_runs_two_forwards(self, model, image, block_evals):
        stability_report(model, image, CorruptionSpec("contrast", 2, seed=1))
        assert len(block_evals) == 2 * CFG.depth

    def test_alpha_sweep_shares_the_stage_off_prefix(self, model, block_evals):
        images = [random_image(CFG, 1), random_image(CFG, 2)]
        values = [0.5, 1.0, 1.5, 2.0, 1e9]
        start = CFG.sata_start_block
        sweep(model, images, "alpha", values)
        assert len(block_evals) == len(images) * (
            CFG.depth + len(values) * (CFG.depth - start))

    def test_gamma_sweep_resumes_at_each_start(self, model, image, block_evals):
        sweep(model, [image], "gamma", GAMMAS)
        starts = [CFG.with_overrides(gamma=g).sata_start_block for g in GAMMAS]
        assert starts == [0, 1, 2, 3, 4, 4]
        assert len(block_evals) == CFG.depth + sum(CFG.depth - s for s in starts)


# ---------------------------------------------------------------------------
# reports on a thread pool

# one block's full FFN is 17M FLOPs, above the pool threshold
POOL_CFG = ModelConfig(depth=3, dim=128, heads=4, patch=4, image=32, num_classes=4,
                       gamma=0.4, alpha=1.0)


@pytest.fixture(scope="module")
def pool_model():
    return random_init(POOL_CFG, seed=8)


def report_csvs(model) -> dict[str, str]:
    """Every report's CSV on POOL_CFG inputs."""
    images = [random_image(POOL_CFG, seed) for seed in (1, 2, 3)]

    def stability_csv(records):
        return render_csv(STABILITY_HEADER, stability_rows(records))

    def sweep_csv(records):
        rows = [[r.value, r.total_flops, r.logit_drift] for r in records]
        return render_csv(SWEEP_HEADER, rows)

    return {
        "averaged": stability_csv(averaged_stability_report(model, images[0], seed=4)),
        "stability": stability_csv(
            stability_report(model, images[0], CorruptionSpec("box_blur", 2, seed=3))),
        "stats": render_csv(STATS_HEADER, stats_report(model, images)),
        "alpha": sweep_csv(sweep(model, images[:2], "alpha", [0.5, 1.0, 2.0])),
        "gamma": sweep_csv(sweep(model, images[:2], "gamma", [0.0, 0.5, 1.0])),
    }


class TestThreadPool:
    def test_reports_byte_identical_on_and_off_the_pool(self, pool_model, monkeypatch):
        threads = set()
        original = harness.forward_batch

        def recorded(*args, **kwargs):
            threads.add(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "forward_batch", recorded)
        monkeypatch.setattr(parallel, "workers", lambda *args: 1)
        serial = report_csvs(pool_model)
        assert threads == {threading.get_ident()}
        monkeypatch.setattr(parallel, "workers", lambda *args: 2)
        pooled = report_csvs(pool_model)
        assert len(threads) > 1  # the pool ran forwards off the main thread
        assert pooled == serial

    def test_task_error_reaches_the_caller(self, pool_model, monkeypatch):
        original = harness.forward_batch
        calls = []

        def failing(images, *args, **kwargs):
            calls.append(1)
            if len(calls) == 5:
                raise FloatingPointError("block 2 ffn produced non-finite entries")
            return original(images, *args, **kwargs)

        monkeypatch.setattr(harness, "forward_batch", failing)
        monkeypatch.setattr(parallel, "workers", lambda *args: 2)
        image = random_image(POOL_CFG, 1)
        with pytest.raises(FloatingPointError, match="block 2 ffn produced non-finite"):
            averaged_stability_report(pool_model, image, seed=0)


class TestWorkers:
    CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

    @pytest.mark.parametrize("openblas,omp,want", [
        ("1", None, "cpus"),
        ("4", None, 1),
        ("4", "1", 1),  # OPENBLAS_NUM_THREADS takes precedence
        (None, None, 1),
        (None, "1", "cpus"),
        (None, "2", 1),
    ])
    def test_blas_thread_rule(self, monkeypatch, openblas, omp, want):
        for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        assert parallel.workers(POOL_CFG) == (self.CPUS if want == "cpus" else want)

    def test_small_model_stays_serial(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert parallel.workers(ModelConfig(depth=8, dim=32, heads=4)) == 1


class TestStatsReport:
    def test_rows_and_header(self, model, image, tmp_path):
        out = tmp_path / "stats.csv"
        rows = stats_report(model, [image])
        write_csv(out, STATS_HEADER, rows)
        assert len(rows) == CFG.depth
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(STATS_HEADER)
        assert len(lines) == 1 + CFG.depth

    def test_histogram_pools_all_tokens(self, model, image):
        rows = stats_report(model, [image, image])
        n_hist = len(STATS_HEADER) - 9
        for row in rows:
            assert sum(row[-n_hist:]) == 2 * CFG.num_patches

    def test_batch_averaging(self, model):
        img1 = random_image(CFG, 1)
        img2 = random_image(CFG, 2)
        rows1 = stats_report(model, [img1])
        rows2 = stats_report(model, [img2])
        both = stats_report(model, [img1, img2])
        for b in range(CFG.depth):
            for col in range(1, 9):
                assert both[b][col] == pytest.approx(
                    (rows1[b][col] + rows2[b][col]) / 2.0, abs=1e-12)

    def test_empty_batch_rejected(self, model):
        with pytest.raises(ValueError):
            stats_report(model, [])


class TestSweep:
    def test_band_covering_value_reproduces_baseline(self, model, image):
        records = sweep(model, [image], "alpha", [0.5, 1.0, 1e9])
        assert [r.value for r in records] == [0.5, 1.0, 1e9]
        assert records[-1].logit_drift <= 1e-9
        assert all(r.total_flops > 0 for r in records)

    def test_gamma_one_reproduces_baseline(self, model, image):
        records = sweep(model, [image], "gamma", [0.5, 1.0])
        assert records[-1].logit_drift <= 1e-9

    def test_csv_schema(self, model, image, tmp_path):
        out = tmp_path / "sweep.csv"
        records = sweep(model, [image], "alpha", [1.0])
        write_csv(out, SWEEP_HEADER, [[r.value, r.total_flops, r.logit_drift] for r in records])
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert len(lines) == 2

    def test_bad_param_rejected(self, model, image):
        with pytest.raises(ValueError):
            sweep(model, [image], "beta", [1.0])


class TestRecordsAreRows:
    """A report's records go to the CSV writers as they are, byte-equal to
    the explicit rows the benchmark builds from their attributes."""

    def test_stability_records(self, model, image, tmp_path):
        records = averaged_stability_report(model, image, seed=6)
        rows = [[r.block_index, r.delta_attention, r.delta_sata] for r in records]
        assert render_csv(STABILITY_HEADER, records) == render_csv(STABILITY_HEADER, rows)
        write_csv(tmp_path / "records.csv", STABILITY_HEADER, records)
        write_csv(tmp_path / "rows.csv", STABILITY_HEADER, rows)
        assert (tmp_path / "records.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_sweep_records(self, model, image):
        records = sweep(model, [image], "gamma", [0.0, 0.5, 1.0])
        rows = [[r.value, r.total_flops, r.logit_drift] for r in records]
        assert render_csv(SWEEP_HEADER, records) == render_csv(SWEEP_HEADER, rows)

    def test_fields_are_the_header_columns_in_order(self):
        assert StabilityRecord._fields == ("block_index", "delta_attention", "delta_sata")
        assert SweepRecord._fields == ("value", "total_flops", "logit_drift")
        assert render_csv(STABILITY_HEADER, [StabilityRecord(3, -0.0, 0.25)]) == (
            "block,delta_attention,delta_sata\n3,-0,0.25\n")


class TestSelftest:
    def test_all_checks_pass(self, tmp_path):
        out = tmp_path / "self.csv"
        rows, ok = selftest(seed=0)
        write_csv(out, SELFTEST_HEADER, rows)
        assert ok
        assert all(r[3] == "pass" for r in rows)
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "check,cases,max_abs_error,status"

    def test_noop_equivalence_runs_the_merge_path(self, monkeypatch):
        calls = []
        match = sata._match

        def counting(*args):
            calls.append(1)
            return match(*args)

        monkeypatch.setattr(sata, "_match", counting)
        harness._check_noop_equivalence(SplitMix64(0), 5)
        assert len(calls) == 5

    def test_deterministic(self):
        a, _ = selftest(seed=3)
        b, _ = selftest(seed=3)
        assert render_csv(["c", "n", "e", "s"], a) == render_csv(["c", "n", "e", "s"], b)


class TestImages:
    def test_raw_roundtrip(self, tmp_path):
        img = random_image(CFG, 3)
        path = tmp_path / "img.f64"
        write_raw_image(img, path)
        back = load_image(path, CFG)
        assert np.array_equal(back, img)

    def test_raw_wrong_size(self, tmp_path):
        path = tmp_path / "img.f64"
        path.write_bytes(b"\x00" * 37)
        with pytest.raises(ValueError, match="float64"):
            load_image(path, CFG)

    def test_pgm_binary(self, tmp_path):
        cfg = ModelConfig(depth=1, dim=4, heads=1, patch=2, image=4)
        body = bytes(range(16))
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n# comment\n4 4\n255\n" + body)
        img = load_image(path, cfg)
        assert img.shape == (4, 4, 1)
        assert img[0, 0, 0] == 0.0
        assert img[3, 3, 0] == pytest.approx(15 / 255)

    def test_pgm_ascii(self, tmp_path):
        cfg = ModelConfig(depth=1, dim=4, heads=1, patch=2, image=4)
        path = tmp_path / "img.pgm"
        path.write_text("P2\n4 4\n15\n" + " ".join(str(v % 16) for v in range(16)))
        img = load_image(path, cfg)
        assert img[0, 1, 0] == pytest.approx(1 / 15)

    def test_ppm_binary(self, tmp_path):
        cfg = ModelConfig(depth=1, dim=4, heads=1, patch=2, image=4, channels=3)
        body = bytes((v * 5) % 256 for v in range(48))
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + body)
        img = load_image(path, cfg)
        assert img.shape == (4, 4, 3)

    def test_pgm_sixteen_bit(self, tmp_path):
        cfg = ModelConfig(depth=1, dim=4, heads=1, patch=2, image=4)
        samples = (np.arange(16) * 4096).astype(">u2")
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n65535\n" + samples.tobytes())
        img = load_image(path, cfg)
        assert img[0, 1, 0] == pytest.approx(4096 / 65535)

    def test_ppm_ascii(self, tmp_path):
        cfg = ModelConfig(depth=1, dim=4, heads=1, patch=2, image=4, channels=3)
        path = tmp_path / "img.ppm"
        path.write_text("P3\n4 4\n255\n" + " ".join(str(v % 256) for v in range(48)))
        img = load_image(path, cfg)
        assert img.shape == (4, 4, 3)
        assert img[0, 0, 1] == pytest.approx(1 / 255)

    def test_channel_mismatch(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n8 8\n255\n" + bytes(192))
        with pytest.raises(ValueError, match="does not match config"):
            load_image(path, CFG)  # CFG expects 1 channel

    def test_random_image_deterministic(self):
        assert np.array_equal(random_image(CFG, 5), random_image(CFG, 5))
