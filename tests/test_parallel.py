"""Lanes inside one forward and the pool rule they share with the reports.

The oracle for every lane count is the serial path: logits, every
``BlockTrace`` field and every block's output stream must be bitwise
equal.  The forwards step ``run_blocks`` one block per call to see the
streams.  Lane counts are forced by
patching ``parallel.workers``, the one rule both the report pool and
the lanes read.
"""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from satavit import ModelConfig, engine, harness, parallel, random_init, vit
from satavit.engine import classify, embed, forward, run_blocks
from satavit.harness import (
    STATS_HEADER,
    SWEEP_HEADER,
    averaged_stability_report,
    render_csv,
    stats_report,
    sweep,
)
from satavit.images import random_image
from satavit.modelio import attn_view, ffn_view
from satavit.parallel import SERIAL, Lanes
from satavit.sata import ffn_flops, sata_stage

from test_vit import captured_mhsa

_VIT_224 = dict(depth=12, patch=16, image=224, channels=3, gamma=0.7, alpha=1.0)
VIT_TI = ModelConfig(dim=192, heads=3, **_VIT_224)
VIT_S = ModelConfig(dim=384, heads=6, **_VIT_224)
# d128, N65: the FFN splits (16-row minimum chunks), the attention stays whole
POOL_CFG = ModelConfig(depth=3, dim=128, heads=4, patch=4, image=32, num_classes=4,
                       gamma=0.4, alpha=1.0)


@pytest.fixture(scope="module")
def vit_ti():
    return random_init(VIT_TI, seed=5)


@pytest.fixture(scope="module")
def pool_model():
    return random_init(POOL_CFG, seed=8)


@pytest.fixture
def gelu_threads(monkeypatch):
    """Idents of the threads every ``vit.gelu`` call ran on."""
    threads = []
    original = vit.gelu

    def recorded(x):
        threads.append(threading.get_ident())
        return original(x)

    monkeypatch.setattr(vit, "gelu", recorded)
    return threads


def force_workers(monkeypatch, count):
    monkeypatch.setattr(parallel, "workers", lambda *args: count)


def assert_bitwise_equal(got, want):
    (logits, traces, streams), (want_logits, want_traces, want_streams) = got, want
    assert np.array_equal(logits, want_logits)
    assert len(traces) == len(want_traces) == len(streams) == len(want_streams)
    for tr, ref, x, want_x in zip(traces, want_traces, streams, want_streams):
        assert_fields_equal(tr, ref, (tr.block_index,))
        assert np.array_equal(x, want_x), (tr.block_index, "stream")


def assert_fields_equal(obj, ref, where):
    """Every field of ``obj`` equals ``ref``'s; a dataclass field (``scores``) by its contents."""
    for field in dataclasses.fields(ref):
        a, b = getattr(obj, field.name), getattr(ref, field.name)
        at = (*where, field.name)
        assert (a is None) == (b is None), at
        if dataclasses.is_dataclass(b):
            assert_fields_equal(a, b, at)
        else:
            assert a is None or np.array_equal(a, b), at


def stepped_forward(image, model, cfg):
    """(logits, traces with scores, each block's output stream), one block per call."""
    x = embed(image, model)
    traces, streams = [], []
    for i in range(cfg.depth):
        x, (trace,) = run_blocks(x, model, cfg, i, i + 1, trace_scores=True)
        traces.append(trace)
        streams.append(x)
    return classify(x, model), traces, streams


def lane_forwards(model, image, cfg, monkeypatch, counts=(2, 3, 4)):
    """The serial stepped forward, then one per forced lane count."""
    force_workers(monkeypatch, 1)
    serial = stepped_forward(image, model, cfg)
    runs = {}
    for count in counts:
        force_workers(monkeypatch, count)
        runs[count] = stepped_forward(image, model, cfg)
    return serial, runs


def looped_forward(image, model, cfg, lanes, trace_scores):
    """``run_blocks``' reference: block by block, the public ``mhsa`` with
    its head-averaged map always built, then ``sata_stage``."""
    x = embed(image, model)
    traces = []
    for i in range(cfg.depth):
        attn = vit.mhsa(x, attn_view(model, i), cfg.heads, lanes)
        x, trace = sata_stage(attn, cfg, ffn_view(model, i), i, lanes, trace_scores)
        traces.append(trace)
    return classify(x, model), traces


class TestSkippedMapOracle:
    """``run_blocks`` builds no head-averaged map in a block that reads
    none; the logits and every trace field stay bitwise the reference's."""

    @pytest.mark.parametrize("shape,count", [("8x32", 1), ("8x32", 2), ("vit-ti", 2)])
    @pytest.mark.parametrize("stage", [True, False], ids=["stage-on", "stage-off"])
    @pytest.mark.parametrize("trace_scores", [False, True], ids=["plain", "scores"])
    def test_run_blocks_equals_the_block_loop(self, vit_ti, monkeypatch, shape, count, stage,
                                              trace_scores):
        model = vit_ti if shape == "vit-ti" else random_init(ModelConfig(), seed=6)
        cfg = model.config.with_overrides(sata_enabled=stage)
        image = random_image(cfg, 2)
        force_workers(monkeypatch, count)
        assert parallel.lanes(cfg) == Lanes(count)
        built = []  # per block: did its mhsa build the map
        real = engine.mhsa

        def recorded(*args):
            out = real(*args)
            built.append(out.mean_attention is not None)
            return out

        monkeypatch.setattr(engine, "mhsa", recorded)
        x, traces = run_blocks(embed(image, model), model, cfg, 0, cfg.depth, trace_scores)
        assert built == [trace_scores or cfg.merges(i) for i in range(cfg.depth)]
        want_logits, want_traces = looped_forward(image, model, cfg, Lanes(count), trace_scores)
        assert np.array_equal(classify(x, model), want_logits)
        assert len(traces) == len(want_traces) == cfg.depth
        for tr, ref in zip(traces, want_traces):
            assert_fields_equal(tr, ref, (tr.block_index,))
        assert any(tr.n_a > 0 for tr in traces) == stage


class TestLaneOracle:
    @pytest.mark.parametrize("overrides", [
        {},
        {"sata_enabled": False},
    ], ids=["stage-on", "stage-off"])
    def test_vit_ti_bitwise_at_2_to_4_lanes(self, vit_ti, monkeypatch, gelu_threads,
                                            overrides):
        cfg = VIT_TI.with_overrides(**overrides)
        serial, runs = lane_forwards(vit_ti, random_image(VIT_TI, 1), cfg, monkeypatch)
        for got in runs.values():
            assert_bitwise_equal(got, serial)
        assert len(set(gelu_threads)) > 1  # the lanes ran off the calling thread

    @pytest.mark.parametrize("alpha,tokens", [(1.0, None), (0.8, 32), (1.5, 48)])
    def test_pool_model_bitwise_down_to_the_minimum_chunk(self, pool_model, monkeypatch,
                                                          gelu_threads, alpha, tokens):
        # 32 and 48 reduced FFN tokens are 2 and 3 chunks of the 16-row minimum
        cfg = POOL_CFG.with_overrides(alpha=alpha)
        serial, runs = lane_forwards(pool_model, random_image(POOL_CFG, 1), cfg, monkeypatch)
        if tokens is not None:
            assert serial[1][-1].ffn_tokens == tokens
            assert len(Lanes(3).rows(tokens, POOL_CFG.dim, POOL_CFG.hidden)) == tokens // 16
        for got in runs.values():
            assert_bitwise_equal(got, serial)
        assert len(set(gelu_threads)) > 1

    def test_vit_s_bitwise_at_2_lanes(self, monkeypatch):
        model = random_init(VIT_S, seed=5)
        serial, runs = lane_forwards(model, random_image(VIT_S, 1), VIT_S, monkeypatch,
                                     counts=(2,))
        assert_bitwise_equal(runs[2], serial)

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_mhsa_writes_every_head(self, vit_ti, monkeypatch, count):
        x = np.random.default_rng(0).normal(size=(VIT_TI.num_tokens, VIT_TI.dim))
        w = attn_view(vit_ti, 0)
        want, want_maps = captured_mhsa(monkeypatch, x, w, VIT_TI.heads)
        got, got_maps = captured_mhsa(monkeypatch, x, w, VIT_TI.heads, Lanes(count))
        assert len(Lanes(count).heads(VIT_TI.heads, *x.shape)) == min(count, VIT_TI.heads)
        assert want_maps.shape == (VIT_TI.heads, VIT_TI.num_tokens, VIT_TI.num_tokens)
        assert np.array_equal(got_maps, want_maps)
        for name in ("features", "mean_attention"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("rows", [0, 1, 2, 7, 14, 197])
    def test_ffn_any_row_count(self, vit_ti, rows):
        x = np.random.default_rng(1).normal(size=(rows, VIT_TI.dim))
        w = ffn_view(vit_ti, 0)
        assert np.array_equal(vit.ffn(x, w, Lanes(4)), vit.ffn(x, w))

    def test_report_csvs_identical_with_lanes_on_and_off(self, vit_ti, monkeypatch,
                                                         gelu_threads):
        # one image: stats and the sweep's baseline run on the calling thread, with lanes
        image = random_image(VIT_TI, 2)

        def csvs():
            sweep_rows = [[r.value, r.total_flops, r.logit_drift]
                          for r in sweep(vit_ti, [image], "alpha", [0.5, 2.0])]
            return (render_csv(STATS_HEADER, stats_report(vit_ti, [image])),
                    render_csv(SWEEP_HEADER, sweep_rows))

        force_workers(monkeypatch, 1)
        serial = csvs()
        for count in (2, 3):
            force_workers(monkeypatch, count)
            assert csvs() == serial


    def test_stress_more_lanes_than_cores_with_fast_switching(self, pool_model, monkeypatch):
        image = random_image(POOL_CFG, 3)
        force_workers(monkeypatch, 1)
        serial = stepped_forward(image, pool_model, POOL_CFG)
        force_workers(monkeypatch, 2 * parallel._cpus() + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [stepped_forward(image, pool_model, POOL_CFG) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for got in runs:
            assert_bitwise_equal(got, serial)


class TestBitwiseHelper:
    @pytest.mark.parametrize("name", ["s", "mean_s", "abs_median_s"])
    def test_a_changed_score_fails(self, pool_model, name):
        logits, traces, streams = stepped_forward(random_image(POOL_CFG, 1), pool_model,
                                                  POOL_CFG)
        assert_bitwise_equal((logits, traces, streams), (logits, traces, streams))
        scores = traces[-1].scores
        if name == "s":
            value = scores.s.copy()
            value[3] = np.nextafter(value[3], np.inf)
        else:
            value = np.nextafter(getattr(scores, name), np.inf)
        changed = dataclasses.replace(
            traces[-1], scores=dataclasses.replace(scores, **{name: value}))
        with pytest.raises(AssertionError, match=f"'scores', '{name}'"):
            assert_bitwise_equal((logits, traces[:-1] + [changed], streams),
                                 (logits, traces, streams))

    def test_a_changed_stream_fails(self, pool_model):
        logits, traces, streams = stepped_forward(random_image(POOL_CFG, 1), pool_model,
                                                  POOL_CFG)
        changed = streams[1].copy()
        changed[5, 7] = np.nextafter(changed[5, 7], np.inf)
        with pytest.raises(AssertionError, match="'stream'"):
            assert_bitwise_equal((logits, traces, [streams[0], changed, *streams[2:]]),
                                 (logits, traces, streams))


class TestChunks:
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("units,lines,mk", [
        (197, 1, 384 * 1536), (197, 1, 192 * 768), (65, 1, 128 * 512), (72, 1, 384 * 1536),
        (17, 1, 32 * 128), (3, 64, 197 * 192), (4, 32, 65 * 128), (6, 64, 197 * 384),
    ])
    def test_cover_in_order_above_the_small_gemm_ceiling(self, count, units, lines, mk):
        chunks = Lanes(count)._chunks(units, lines, mk)
        assert chunks[0].start == 0 and chunks[-1].stop == units
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        sizes = [c.stop - c.start for c in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert len(chunks) <= count
        if len(chunks) > 1:
            assert all(s * lines >= 2 and s * lines * mk > parallel._SMALL_GEMM_MNK
                       for s in sizes)

    def test_serial_is_one_chunk(self):
        assert SERIAL.rows(197, 384, 1536) == [slice(0, 197)]
        assert SERIAL.heads(6, 197, 384) == [slice(0, 6)]


class TestRule:
    @pytest.fixture
    def pinned(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    def test_lanes_from_their_own_floor(self, pinned):
        cpus = parallel._cpus()
        assert parallel.lanes(VIT_S) == parallel.lanes(VIT_TI) == Lanes(cpus)
        assert parallel.lanes(POOL_CFG) == SERIAL  # reports still use the pool at this size
        assert parallel.workers(POOL_CFG) == cpus
        for cfg in (VIT_S, VIT_TI, POOL_CFG):
            flops = ffn_flops(cfg.num_tokens, cfg.dim, cfg.hidden)
            assert flops >= parallel._POOL_MIN_FFN_FLOPS
            assert (flops >= parallel._LANE_MIN_FFN_FLOPS) == (cfg is not POOL_CFG)

    def test_serial_on_a_pool_thread(self, pinned):
        both_running = threading.Barrier(2, timeout=30)  # so a helper takes an item

        def item(i):
            both_running.wait()
            return threading.get_ident(), parallel.lanes(VIT_S)

        seen = parallel.run(item, [0, 1], 2)
        threads = {ident for ident, _ in seen}
        assert threading.get_ident() in threads and len(threads) == 2  # caller and helper
        assert all(lanes == SERIAL for _, lanes in seen)
        assert parallel.lanes(VIT_S) == Lanes(parallel._cpus())  # cleared after the run

    def test_unpinned_blas_keeps_lanes_off(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert parallel.lanes(VIT_S) == SERIAL


class TestNoNesting:
    def test_pooled_forwards_run_their_kernels_on_the_task_thread(self, pool_model,
                                                                   monkeypatch):
        in_forward = threading.local()
        task_threads, gelu_calls = set(), []
        forward_, gelu = harness.forward_batch, vit.gelu

        def recorded_forward(*args, **kwargs):
            task_threads.add(threading.get_ident())
            in_forward.active = True
            try:
                return forward_(*args, **kwargs)
            finally:
                in_forward.active = False

        def recorded_gelu(x):
            gelu_calls.append(getattr(in_forward, "active", False))
            return gelu(x)

        monkeypatch.setattr(harness, "forward_batch", recorded_forward)
        monkeypatch.setattr(vit, "gelu", recorded_gelu)
        force_workers(monkeypatch, 2)
        averaged_stability_report(pool_model, random_image(POOL_CFG, 1), seed=0)
        assert len(task_threads) > 1
        assert gelu_calls and all(gelu_calls)  # each on the thread running its forward

    def test_nested_run_runs_inline(self):
        outer = parallel.run(
            lambda i: parallel.run(lambda j: threading.get_ident(), [0, 1], 2), [0, 1, 2], 2)
        assert all(len(set(inner)) == 1 for inner in outer)


def fail_in_the_second_ffn_lane(monkeypatch):
    """Make ``gelu`` raise ``FloatingPointError`` on the second FFN lane's
    rows of a full POOL_CFG block; returns the first row of every failing
    call."""
    first, second = Lanes(2).rows(POOL_CFG.num_tokens, POOL_CFG.dim, POOL_CFG.hidden)
    failed = []
    original = vit.gelu

    def gelu(x):
        if x.shape[-2] == second.stop - second.start != first.stop - first.start:
            failed.append(second.start)
            raise FloatingPointError("gelu failed in the second lane")
        return original(x)

    monkeypatch.setattr(vit, "gelu", gelu)
    return failed


class TestLaneErrors:
    def test_second_lane_error_reaches_the_caller(self, pool_model, monkeypatch):
        force_workers(monkeypatch, 2)
        failed = fail_in_the_second_ffn_lane(monkeypatch)
        with pytest.raises(FloatingPointError, match=r"^block 0: gelu failed in the second lane$"):
            forward(random_image(POOL_CFG, 1), pool_model, POOL_CFG)
        assert failed

    def test_a_failed_lane_leaves_the_pool_usable(self, pool_model, monkeypatch):
        force_workers(monkeypatch, 2)
        fail_in_the_second_ffn_lane(monkeypatch)
        with pytest.raises(FloatingPointError):
            forward(random_image(POOL_CFG, 1), pool_model, POOL_CFG)
        monkeypatch.undo()
        force_workers(monkeypatch, 2)
        logits, _ = forward(random_image(POOL_CFG, 1), pool_model, POOL_CFG)
        assert np.all(np.isfinite(logits))

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_run_raises_the_first_failing_part_after_all_finish(self, failing):
        finished = []

        def part(i):
            if i >= failing:
                raise FloatingPointError(f"part {i}")
            finished.append(i)
            return i

        with pytest.raises(FloatingPointError, match=f"part {failing}"):
            parallel.run(part, [0, 1, 2], 3)
        assert sorted(finished) == list(range(failing))

    def test_a_busy_pool_leaves_the_caller_to_run_every_item(self):
        release = threading.Event()
        pool = parallel._executor()
        blockers = [pool.submit(release.wait, 30) for _ in range(pool._max_workers)]
        threads = []

        def item(i):
            threads.append(threading.get_ident())
            return i * i

        try:
            assert parallel.run(item, range(6), 2) == [0, 1, 4, 9, 16, 25]
            assert not any(b.done() for b in blockers)  # returned while the pool was blocked
        finally:
            release.set()
        for blocker in blockers:
            blocker.result()
        assert threads == [threading.get_ident()] * 6  # the cancelled helper never ran

    @pytest.mark.parametrize("count", [2, parallel._cpus() + 2])
    def test_at_most_count_items_in_flight(self, count):
        lock = threading.Lock()
        running, peak = [0], [0]

        def item(i):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.002)
            with lock:
                running[0] -= 1
            return i

        assert parallel.run(item, range(4 * count), count) == list(range(4 * count))
        assert 1 <= peak[0] <= min(count, parallel._cpus())

    def test_items_run_under_the_callers_error_state(self):
        def item(i):
            time.sleep(0.002)
            return threading.get_ident(), np.geterr()

        with np.errstate(over="raise"):
            want = np.geterr()
            got = parallel.run(item, range(8), 2)
        assert want["over"] == "raise"
        assert all(state == want for _, state in got)
        assert {ident for ident, _ in got} - {threading.get_ident()}  # a helper took one

    def test_run_keeps_part_order(self):
        assert parallel.run(lambda i: i * i, [0, 1, 2, 3, 4], 4) == [0, 1, 4, 9, 16]


def test_import_starts_no_thread():
    from conftest import run_python

    res = run_python("-c", "import threading, satavit; assert threading.active_count() == 1")
    assert res.returncode == 0, res.stderr
