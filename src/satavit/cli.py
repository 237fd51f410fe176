"""Command line front end.

Subcommands: ``init`` (seeded random model), ``forward``, ``stats``,
``stability``, ``sweep``, ``flops``, ``selftest``.  Exit codes: 0 on
success, 1 on usage errors, 2 on data errors (missing or corrupt
files, shape mismatches, failed selftest).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness, images, modelio
from .engine import forward
from .vit import ModelConfig


class UsageError(Exception):
    """Bad flag combinations detected after argparse; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we want 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_stage_flags(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=float, default=None, help="override band scale")
    p.add_argument("--gamma", type=float, default=None, help="override stage start fraction")
    p.add_argument("--no-sata", action="store_true", help="disable the token stage entirely")


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", required=True, help="model path stem (manifest + weights)")
    p.add_argument("--seed", type=int, default=0, help="seed for synthetic inputs")
    _add_stage_flags(p)
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.add_argument(
        "--image",
        action="append",
        default=None,
        help="input image (raw float64 or PGM/PPM); repeatable; "
        "omit for a seeded random image",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="satavit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a seeded random model")
    p.add_argument("--model", required=True, help="output path stem")
    p.add_argument("--config", default=None, help="JSON model config file")
    p.add_argument("--seed", type=int, default=0)
    _add_stage_flags(p)

    p = sub.add_parser("forward", help="classify one image, print logits")
    _add_run_flags(p)

    p = sub.add_parser("stats", help="per-block score statistics CSV")
    _add_run_flags(p)

    p = sub.add_parser("stability", help="clean-vs-corrupted similarity CSV")
    _add_run_flags(p)
    # None tells an omitted flag from a given one; _cmd_stability resolves the defaults
    p.add_argument(
        "--corruption",
        default=None,
        choices=images.CORRUPTION_KINDS + ("none",),
        help="default gaussian_noise; 'none' compares the clean image with itself",
    )
    p.add_argument("--severity", type=int, default=None, choices=range(1, 6),
                   help="default 3")
    p.add_argument(
        "--average",
        action="store_true",
        help="average deltas over every (kind, severity) pair; "
        "takes neither --corruption nor --severity",
    )

    p = sub.add_parser("sweep", help="alpha/gamma sweep CSV")
    _add_run_flags(p)
    p.add_argument("--param", required=True, choices=("alpha", "gamma"))
    p.add_argument(
        "--values", required=True, help="comma-separated parameter values"
    )

    p = sub.add_parser("flops", help="per-block FFN load report")
    _add_run_flags(p)

    p = sub.add_parser("selftest", help="run the built-in oracle suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    return parser


def _overrides(cfg: ModelConfig, args) -> ModelConfig:
    """``cfg`` with the --alpha, --gamma and --no-sata flags applied."""
    overrides = {}
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.gamma is not None:
        overrides["gamma"] = args.gamma
    if args.no_sata:
        overrides["sata_enabled"] = False
    return cfg.with_overrides(**overrides) if overrides else cfg


def _load_run(args) -> tuple[modelio.Model, ModelConfig]:
    """The model at --model and its config with the run flags applied."""
    model = modelio.load_model(args.model)
    return model, _overrides(model.config, args)


def _load_images(args, cfg: ModelConfig, at_most_one: bool = False) -> list[np.ndarray]:
    if args.image:
        if at_most_one and len(args.image) > 1:
            raise UsageError(f"{args.command} takes a single --image")
        return [images.load_image(p, cfg) for p in args.image]
    return [images.random_image(cfg, args.seed)]


def _emit(out, header, rows) -> None:
    if out is None:
        sys.stdout.write(harness.render_csv(header, rows))
    else:
        harness.write_csv(out, header, rows)


def _cmd_init(args) -> int:
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            cfg = ModelConfig.from_dict(json.load(fh))
    else:
        cfg = ModelConfig()
    model = modelio.random_init(_overrides(cfg, args), args.seed)
    checksum = modelio.save_model(model, args.model)
    print(f"wrote {args.model}.manifest.json / {args.model}.weights.bin (checksum {checksum})")
    return 0


def _cmd_forward(args) -> int:
    model, cfg = _load_run(args)
    image = _load_images(args, cfg, at_most_one=True)[0]
    logits, traces = forward(image, model, cfg=cfg)
    print("logits: " + " ".join(format(v, ".9g") for v in logits))
    print(f"argmax: {int(np.argmax(logits))}")
    total = sum(tr.ffn_flops for tr in traces)
    print(f"ffn_flops_total: {total}")
    if args.out is not None:
        _emit(args.out, ["index", "logit"], [[i, v] for i, v in enumerate(logits)])
    return 0


def _cmd_stats(args) -> int:
    model, cfg = _load_run(args)
    rows = harness.stats_report(model, _load_images(args, cfg), cfg=cfg)
    _emit(args.out, harness.STATS_HEADER, rows)
    return 0


def _cmd_stability(args) -> int:
    given = [flag for flag, value in (("--corruption", args.corruption),
                                      ("--severity", args.severity)) if value is not None]
    if args.average and given:
        raise UsageError(f"--average takes no {' or '.join(given)}")
    if args.corruption == "none" and args.severity is not None:
        raise UsageError("--corruption none takes no --severity")
    model, cfg = _load_run(args)
    image = _load_images(args, cfg, at_most_one=True)[0]
    if args.average:
        records = harness.averaged_stability_report(model, image, args.seed, cfg=cfg)
    elif args.corruption == "none":
        records = harness.stability_report(model, image, spec=None, cfg=cfg)
    else:
        spec = images.CorruptionSpec(
            kind=args.corruption or "gaussian_noise",
            severity=3 if args.severity is None else args.severity,
            seed=args.seed,
        )
        records = harness.stability_report(model, image, spec, cfg=cfg)
    _emit(args.out, harness.STABILITY_HEADER, records)
    return 0


def _cmd_sweep(args) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise UsageError("--values must be comma-separated numbers") from None
    if not values:
        raise UsageError("--values is empty")
    model, cfg = _load_run(args)
    records = harness.sweep(model, _load_images(args, cfg), args.param, values, cfg=cfg)
    _emit(args.out, harness.SWEEP_HEADER, records)
    return 0


def _cmd_flops(args) -> int:
    model, cfg = _load_run(args)
    image = _load_images(args, cfg, at_most_one=True)[0]
    _, traces = forward(image, model, cfg=cfg)
    rows = [[tr.block_index, tr.ffn_tokens, tr.ffn_flops] for tr in traces]
    total = sum(tr.ffn_flops for tr in traces)
    # with the stage off every block runs the full FFN on all tokens
    vanilla = cfg.depth * cfg.block_ffn_flops
    _emit(args.out, ["block", "ffn_tokens", "ffn_flops"], rows)
    print(f"ffn_flops_total: {total}", file=sys.stderr)
    print(f"ffn_flops_vanilla: {vanilla}", file=sys.stderr)
    print(f"ratio: {format(total / vanilla, '.9g')}", file=sys.stderr)
    return 0


def _cmd_selftest(args) -> int:
    rows, ok = harness.selftest(args.seed)
    _emit(args.out, harness.SELFTEST_HEADER, rows)
    if args.out is not None:
        print(f"selftest: {'pass' if ok else 'FAIL'} ({len(rows)} checks)")
    return 0 if ok else 2


_COMMANDS = {
    "init": _cmd_init,
    "forward": _cmd_forward,
    "stats": _cmd_stats,
    "stability": _cmd_stability,
    "sweep": _cmd_sweep,
    "flops": _cmd_flops,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        with np.errstate(all="ignore"):  # the engine's checks name every non-finite stream
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"satavit {args.command}: error: {exc}\n")
        return 1
    except (OSError, ValueError, FloatingPointError) as exc:
        sys.stderr.write(f"satavit {args.command}: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
