"""satavit benchmark: one workload per process, one client in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload tiny-single --seed 0 --seconds 35 --trace 0

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
taken from spans the benchmark records around the library's module
globals (see ``spans.py``).  Every output is checked: against the golden
files at the default seed, and for determinism and the FFN token
invariant at any seed.  ``--record-golden`` rewrites the golden files.
"""

from __future__ import annotations

import os

# OpenBLAS reads its thread count once, when numpy first loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

from checks import block_fields, check_blocks, check_csv, check_invariant, check_logits
from host import host_record
from spans import END, NAME, REQUEST, START, Tracer, self_times
from workloads import ALPHAS, DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
GOLDEN_DIR = HERE / "golden"

SETUPS = 5  # set-ups per run, spread over the window; setup_s is their median
MAX_TRACED_PAIRS = 1000  # bounds the spans a traced run keeps in memory
REPEATS = 5  # slices of a run whose means the timing medians are taken over

# root span of each request kind
ROOT_SPANS = {
    "setup": "setup",
    "forward_on": "engine.forward",
    "forward_off": "engine.forward",
    "stability": "harness.averaged_stability_report",
    "sweep": "harness.sweep",
    "stats": "harness.stats_report",
}

# the module-global names library callers look up; the traced run wraps them
TRACED_NAMES = {
    "engine": ("patch_embed", "mhsa", "ffn", "sata_stage", "spatial_scores",
               "embed_view", "attn_view", "ffn_view", "head_view"),
    "sata": ("spatial_scores", "split_tokens", "bipartite_match", "ffn"),
    "vit": ("gelu", "layer_norm", "row_softmax"),
    "harness": ("forward", "corrupt", "cosine_similarity"),
}

# metrics that are counted or computed rather than timed
COMPUTED = {
    "ffn_flops_ratio": "counted from BlockTrace.ffn_flops",
    "modelio.blob_mb": "computed from the blob size",
    "vit.mhsa_gflop_per_forward": "computed from shapes",
    "vit.ffn_gflop_per_forward": "counted from BlockTrace.ffn_flops",
    "vit.mhsa_gflops_per_s": "computed FLOPs / traced time",
    "vit.ffn_gflops_per_s": "computed FLOPs / traced time",
    "engine.py_calls_per_forward": "counted with sys.setprofile",
    "harness.block_evals_per_report": "counted at engine.mhsa, per image",
}


def import_library():
    """Import satavit from this checkout's sources, never an installed copy."""
    init = SRC / "satavit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no satavit sources under {SRC}; "
                         "run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    import satavit  # its __init__ imports every submodule the benchmark uses

    if Path(satavit.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported satavit from {satavit.__file__}, not {init}")
    return satavit


def median(values):
    return statistics.median(values) if values else float("nan")


class Run:
    """One workload at one seed: inputs, timed operations and their checks."""

    def __init__(self, lib, workload, seed: int, golden: dict | None, stem: Path):
        self.lib = lib
        self.w = workload
        self.seed = seed
        self.golden = golden or {}
        self.stem = stem
        self.cfg = lib.ModelConfig(**workload.config)
        self.cfg_off = self.cfg.with_overrides(sata_enabled=False)
        self.model = None
        self.tracer: Tracer | None = None
        self.requests: dict[int, str] = {}  # traced request id -> kind
        self.attempted = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.on_ms: list[float] = []  # untraced forward times
        self.off_ms: list[float] = []
        self.n_on = 0
        self.flops_on = 0
        self.flops_off = 0
        self.ffn_tokens_on = 0
        self.stage_blocks = 0  # stage blocks run with the stage on
        self.stage_sums = [0] * 5  # their block fields, summed
        self.report_s = {"stability": [], "sweep": [], "stats": []}
        self.reference: dict = {}  # first output of image 1 and of each report
        self.next_image = 1
        self._images: dict[int, object] = {}

    def image(self, i: int):
        if i not in self._images:
            self._images[i] = self.lib.random_image(self.cfg, self.seed + i)
        return self._images[i]

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def op(self, kind: str, fn):
        """Run one operation; returns (seconds, result), or None if it raised."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request += 1
            self.requests[self.tracer.request] = kind
        try:
            t0 = perf_counter()
            with self.span(ROOT_SPANS[kind]):
                result = fn()
            return perf_counter() - t0, result
        except Exception as exc:  # a failed operation is counted, not fatal
            self.problems.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None

    def check_forward(self, i: int, stage: bool, logits, traces) -> bool:
        rows = block_fields(traces)
        problems = check_invariant(rows)
        got = (logits.tobytes(), rows)
        if i == 1 and self.reference.setdefault(("image", stage), got) != got:
            problems.append("output differs from an earlier run of the same input")
        want = self.golden.get("images", {}).get(str(i))
        if want is not None:
            want = want["on" if stage else "off"]
            problems += check_logits(logits, want["logits"]) + check_blocks(rows, want["blocks"])
        else:
            problems += check_logits(logits, logits)  # finiteness only
        if problems:
            self.problems.append(f"image {i} stage {'on' if stage else 'off'}: "
                                 + "; ".join(problems))
        return not problems

    def setup(self) -> None:
        """Load the model and run its first forward; the time goes to ``setup_s``."""

        def load_and_warm():
            with self.span("modelio.load_model"):
                model = self.lib.load_model(self.stem)
            with self.span("engine.forward"):
                logits, traces = self.lib.engine.forward(self.image(1), model, self.cfg)
            return model, logits, traces

        self.model = None  # drop the loaded copy before loading the next
        out = self.op("setup", load_and_warm)
        if out is None:
            raise SystemExit(f"perfbench: set-up failed: {self.problems[-1]}")
        seconds, (self.model, logits, traces) = out
        self.setup_s.append(seconds)
        self.check_forward(1, True, logits, traces)

    def forward(self, i: int, stage: bool):
        """One checked forward; returns (seconds, traces), or None on failure."""
        image = self.image(i)
        cfg = self.cfg if stage else self.cfg_off
        model = self.model
        out = self.op("forward_on" if stage else "forward_off",
                      lambda: self.lib.engine.forward(image, model, cfg))
        if out is None:
            return None
        seconds, (logits, traces) = out
        return (seconds, traces) if self.check_forward(i, stage, logits, traces) else None

    def pair(self) -> None:
        """Stage-on and stage-off forward of one new image, order alternating."""
        i = self.next_image
        self.next_image += 1
        for stage in ((True, False) if i % 2 else (False, True)):
            out = self.forward(i, stage)
            if out is None:
                continue
            seconds, traces = out
            flops = sum(tr.ffn_flops for tr in traces)
            if self.tracer is None:
                (self.on_ms if stage else self.off_ms).append(seconds * 1e3)
            if stage:
                self.n_on += 1
                self.flops_on += flops
                self.ffn_tokens_on += sum(tr.ffn_tokens for tr in traces)
                for row in block_fields(traces[self.cfg.sata_start_block:]):
                    self.stage_blocks += 1
                    self.stage_sums = [a + b for a, b in zip(self.stage_sums, row)]
            else:
                self.flops_off += flops
        if i > max(self.w.sweep_images, self.w.stats_images):
            self._images.pop(i, None)

    def report_jobs(self) -> dict:
        """Per report kind: the call to time and the CSV rendering of its result."""
        h = self.lib.harness
        model = self.model
        image = self.image(1)
        sweep_imgs = [self.image(i) for i in range(1, self.w.sweep_images + 1)]
        stats_imgs = [self.image(i) for i in range(1, self.w.stats_images + 1)]
        return {
            "stability": (
                lambda: h.averaged_stability_report(model, image, self.seed),
                lambda recs: h.render_csv(
                    h.STABILITY_HEADER,
                    [[r.block_index, r.delta_attention, r.delta_sata] for r in recs]),
            ),
            "sweep": (
                lambda: h.sweep(model, sweep_imgs, "alpha", ALPHAS),
                lambda recs: h.render_csv(
                    h.SWEEP_HEADER, [[r.value, r.total_flops, r.logit_drift] for r in recs]),
            ),
            "stats": (
                lambda: h.stats_report(model, stats_imgs),
                lambda rows: h.render_csv(h.STATS_HEADER, rows),
            ),
        }

    def report(self, kind: str):
        """One checked report; returns its seconds, or None on failure."""
        fn, render = self.report_jobs()[kind]
        out = self.op(kind, fn)
        if out is None:
            return None
        seconds, records = out
        text = render(records)
        problems = []
        if self.reference.setdefault(("report", kind), text) != text:
            problems.append("CSV differs from an earlier run of the same inputs")
        want = self.golden.get("reports", {}).get(kind)
        if want is not None:
            problems += check_csv(text, want)
        if problems:
            self.problems.append(f"{kind} report: " + "; ".join(problems))
            return None
        return seconds

    def report_round(self) -> None:
        """Each report once."""
        for kind, times in self.report_s.items():
            seconds = self.report(kind)
            if seconds is not None:
                times.append(seconds)

    def measure(self, seconds: float, setups: int) -> None:
        """Forward pairs and reports in a closed loop until ``seconds`` pass.

        After each pair, each report kind runs if the time it has taken
        so far is below its share (``Workload.report_shares``) of the
        time elapsed, and it would end by the deadline; every report
        runs at least once.  Short reports thus run many times spread
        over the whole run, as do the ``setups`` set-ups, so every
        metric samples the whole run.
        """
        start = perf_counter()
        deadline = start + seconds
        while perf_counter() < deadline:
            n = len(self.setup_s)
            if n < setups and perf_counter() >= start + n * seconds / setups:
                self.setup()
            self.pair()
            for kind, share in self.w.report_shares.items():
                times = self.report_s[kind]
                now = perf_counter()
                if times and (sum(times) >= share * (now - start)
                              or now + times[-1] > deadline):
                    continue
                seconds_taken = self.report(kind)
                if seconds_taken is not None:
                    times.append(seconds_taken)
        while len(self.setup_s) < setups:
            self.setup()

    def verify_determinism(self) -> None:
        """Rerun image 1 and the stats report; outputs must repeat bit for bit."""
        for stage in (True, False):
            self.forward(1, stage)
        self.report("stats")


def median_of_means(samples, groups: int = REPEATS) -> float:
    """Median over ``groups`` consecutive slices of ``samples`` of each slice's mean.

    The slices are the run's repeats.  Host speed on a shared machine
    switches between states lasting seconds, which makes a plain median
    of many short samples jump between those states; a slice mean blends
    them in proportion to the time spent in each.
    """
    k = min(groups, len(samples))
    bounds = [round(j * len(samples) / k) for j in range(k + 1)]
    return statistics.median(statistics.fmean(samples[a:b]) for a, b in zip(bounds, bounds[1:]))


def end_to_end_metrics(run: Run) -> dict:
    return {
        "setup_s": median(run.setup_s),
        "forward_ms_p50": median_of_means(run.on_ms),
        "vanilla_ms_p50": median_of_means(run.off_ms),
        "images_per_s": len(run.on_ms) / (sum(run.on_ms) / 1e3),
        "stability_report_s": median_of_means(run.report_s["stability"]),
        "sweep_report_s": median_of_means(run.report_s["sweep"]),
        "stats_report_s": median_of_means(run.report_s["stats"]),
        "ffn_flops_ratio": run.flops_on / run.flops_off,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def mhsa_flops(cfg) -> int:
    """FLOPs of the attention GEMMs in one forward, from shapes (MAC = 2)."""
    n, d = cfg.num_tokens, cfg.dim
    # Q, K, V and output projections: 4 x (n, d) @ (d, d); logits and A @ V: 2 x n^2 d
    return cfg.depth * (8 * n * d * d + 4 * n * n * d)


def py_calls_per_forward(run: Run) -> int:
    """Python and C function calls made during one stage-on forward."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    image, model = run.image(1), run.model
    sys.setprofile(profile)
    try:
        run.lib.engine.forward(image, model, run.cfg)
    finally:
        sys.setprofile(None)
    return count - 1  # the sys.setprofile(None) call itself


def per_layer_metrics(run: Run, tracer: Tracer, calls: int, blob_bytes: int) -> dict:
    """Per-layer metrics from the spans, the counts and the untraced pairs."""
    untraced_on, untraced_off = run.on_ms, run.off_ms
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    count = defaultdict(int)
    durations = defaultdict(list)
    for span, s in zip(tracer.spans, self_times(tracer.spans)):
        key = (run.requests[span[REQUEST]], span[NAME])
        self_s[key] += s
        incl_s[key] += span[END] - span[START]
        count[key] += 1
        durations[key].append(span[END] - span[START])
    n_req = Counter(run.requests.values())

    def per(kind, names, table=self_s):
        return sum(table[(kind, n)] for n in names) / n_req[kind]

    def fwd_ms(*names):
        return 1e3 * per("forward_on", names)

    cfg = run.cfg
    mhsa_gflop = mhsa_flops(cfg) / 1e9
    ffn_gflop = run.flops_on / run.n_on / 1e9
    n_a, _, n_groups, n_residual, ffn_tokens = run.stage_sums
    evals = {kind: per(kind, ["engine.mhsa"], count) / images
             for kind, images in (("stability", 1), ("sweep", run.w.sweep_images),
                                  ("stats", run.w.stats_images))}
    traced_on = [1e3 * s for s in durations[("forward_on", "engine.forward")]]
    p90 = (statistics.quantiles(untraced_on, n=10)[-1] if len(untraced_on) > 1
           else untraced_on[0])
    return {
        "modelio.load_model_s": median(durations[("setup", "modelio.load_model")]),
        "modelio.blob_mb": blob_bytes / 1e6,
        "modelio.views_ms": fwd_ms("engine.embed_view", "engine.attn_view",
                                   "engine.ffn_view", "engine.head_view"),
        "vit.patch_embed_ms": fwd_ms("engine.patch_embed"),
        "vit.mhsa_ms": fwd_ms("engine.mhsa"),
        "vit.ffn_full_ms": fwd_ms("engine.ffn"),
        "vit.ffn_reduced_ms": fwd_ms("sata.ffn"),
        "vit.mhsa_gflop_per_forward": mhsa_gflop,
        "vit.ffn_gflop_per_forward": ffn_gflop,
        "vit.mhsa_gflops_per_s": mhsa_gflop / per("forward_on", ["engine.mhsa"], incl_s),
        "vit.ffn_gflops_per_s": ffn_gflop / per("forward_on", ["engine.ffn", "sata.ffn"], incl_s),
        "vit.ffn_tokens_per_forward": run.ffn_tokens_on / run.n_on,
        "tensorops.gelu_ms": fwd_ms("vit.gelu"),
        "tensorops.row_softmax_ms": fwd_ms("vit.row_softmax"),
        "tensorops.layer_norm_ms": fwd_ms("vit.layer_norm"),
        "moran.scores_stage_ms": fwd_ms("sata.spatial_scores"),
        "moran.scores_passthrough_ms": fwd_ms("engine.spatial_scores"),
        "moran.calls_per_forward": per("forward_on", ["sata.spatial_scores",
                                                      "engine.spatial_scores"], count),
        "sata.split_ms": fwd_ms("sata.split_tokens"),
        "sata.match_ms": fwd_ms("sata.bipartite_match"),
        "sata.stage_self_ms": fwd_ms("engine.sata_stage"),
        "sata.ffn_token_fraction": ffn_tokens / (run.stage_blocks * cfg.num_tokens),
        "sata.residual_fraction": n_residual / (run.stage_blocks * cfg.num_patches),
        "sata.mean_group_size": (n_a - n_residual) / n_groups if n_groups else 0.0,
        "sata.wall_saving": median_of_means(untraced_off) / median_of_means(untraced_on),
        "engine.forward_self_ms": fwd_ms("engine.forward"),
        "engine.py_calls_per_forward": calls,
        "engine.forward_ms_p90": p90,
        "harness.block_evals_per_report": sum(evals.values()),
        "harness.block_evals.stability": evals["stability"],
        "harness.block_evals.sweep": evals["sweep"],
        "harness.block_evals.stats": evals["stats"],
        "harness.corrupt_ms": 1e3 * per("stability", ["harness.corrupt"]),
        "harness.cosine_ms": 1e3 * per("stability", ["harness.cosine_similarity"]),
        "trace.overhead_frac": median_of_means(traced_on) / median_of_means(untraced_on) - 1.0,
    }


@contextmanager
def traced(run: Run, tracer: Tracer):
    """Record spans around the library names callers look up, for the block's duration."""
    for module, attrs in TRACED_NAMES.items():
        for attr in attrs:
            tracer.wrap(getattr(run.lib, module), attr)
    run.tracer = tracer
    try:
        yield
    finally:
        run.tracer = None
        tracer.unwrap_all()


def traced_run(run: Run, seconds: float) -> tuple[Tracer, int, int]:
    """Traced set-ups, untraced and traced pairs alternating, a traced report
    round and a call count; returns the tracer, the call count and the
    blob size.

    Alternating the pairs lets the trace overhead be read against
    untraced forwards taken at the same time, on a host whose speed drifts.
    """
    tracer = Tracer()
    run.tracer = tracer
    for _ in range(SETUPS):
        run.setup()
    run.tracer = None
    deadline = perf_counter() + seconds
    for _ in range(MAX_TRACED_PAIRS):
        run.pair()
        with traced(run, tracer):
            run.pair()
        if perf_counter() >= deadline:
            break
    with traced(run, tracer):
        run.report_round()
    calls = py_calls_per_forward(run)
    run.verify_determinism()
    tracer.dump(WORK / f"spans-{run.w.name}-{run.seed}.jsonl")
    blob_bytes = run.stem.with_name(run.stem.name + ".weights.bin").stat().st_size
    return tracer, calls, blob_bytes


def model_stem(workload, seed: int) -> Path:
    return WORK / f"model-{workload.name}-{seed}"


def prepare(lib, workload, seed: int) -> Path:
    stem = model_stem(workload, seed)
    lib.save_model(lib.random_init(lib.ModelConfig(**workload.config), seed), stem)
    return stem


def prepare_in_child(workload, seed: int) -> Path:
    """Make the model in a fresh process, so its memory stays out of peak_rss_mb."""
    res = subprocess.run(
        [sys.executable, __file__, "--prepare", "--workload", workload.name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170,
    )
    if res.returncode != 0:
        raise SystemExit(f"perfbench: model preparation failed:\n{res.stderr}")
    return model_stem(workload, seed)


def remove_model(stem: Path) -> None:
    for suffix in (".manifest.json", ".weights.bin"):
        stem.with_name(stem.name + suffix).unlink(missing_ok=True)


def load_golden(workload, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads((GOLDEN_DIR / f"{workload.name}.json").read_text(encoding="utf-8"))


def record_golden(lib) -> None:
    """Write the golden outputs of every workload at the default seed."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        stem = prepare(lib, workload, DEFAULT_SEED)
        run = Run(lib, workload, DEFAULT_SEED, golden=None, stem=stem)
        try:
            run.model = model = lib.load_model(stem)
        finally:
            remove_model(stem)
        images = {}
        for i in range(1, workload.golden_images + 1):
            images[str(i)] = {}
            for stage, cfg in (("on", run.cfg), ("off", run.cfg_off)):
                logits, traces = lib.engine.forward(run.image(i), model, cfg)
                images[str(i)][stage] = {"logits": [float(v) for v in logits],
                                         "blocks": block_fields(traces)}
        reports = {kind: render(fn()) for kind, (fn, render) in run.report_jobs().items()}
        path = GOLDEN_DIR / f"{workload.name}.json"
        path.write_text(json.dumps({"workload": workload.name, "seed": DEFAULT_SEED,
                                    "config": workload.config, "images": images,
                                    "reports": reports}, indent=1) + "\n", encoding="utf-8")
        print(f"recorded {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite the golden outputs of every workload at the default seed")
    args = parser.parse_args(argv)

    lib = import_library()
    WORK.mkdir(exist_ok=True)
    if args.record_golden:
        record_golden(lib)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    if args.prepare:
        prepare(lib, workload, args.seed)
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    stem = prepare_in_child(workload, args.seed)
    run = Run(lib, workload, args.seed, load_golden(workload, args.seed), stem)
    try:
        if args.trace:
            traced_outputs = traced_run(run, args.seconds)
        else:
            run.setup()
            run.measure(args.seconds, setups=SETUPS)
            run.verify_determinism()
    finally:
        remove_model(stem)
    try:
        measured = (per_layer_metrics(run, *traced_outputs) if args.trace
                    else end_to_end_metrics(run))
    except (ArithmeticError, ValueError, IndexError):
        if not run.problems:
            raise
        # failed operations left some metric without samples
        measured = dict.fromkeys(units, math.nan)
    if set(measured) != set(units):
        raise SystemExit(f"perfbench: measured {sorted(measured)}, BENCHMARK.json declares "
                         f"{sorted(units)}")

    host = host_record(ROOT, args.seed)
    failed = len(run.problems)
    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    print(f"host {json.dumps(host, sort_keys=True)}")
    reports = ", ".join(f"{len(times)} {kind}" for kind, times in run.report_s.items())
    print(f"workload {workload.name}: closed loop, 1 client; {len(run.on_ms)} untraced "
          f"stage-on/off pairs; reports: {reports}")
    print(f"error_rate = {failed / run.attempted:.6g} ratio ({failed} of {run.attempted} failed)")
    for name, value in measured.items():
        note = f"  [{COMPUTED[name]}]" if name in COMPUTED else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": units[name]}
                    for name, value in measured.items()},
    }
    (WORK / f"result-{workload.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "host": host, "problems": run.problems}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
