"""Output checks: golden comparison, determinism and the counting invariant.

Each check returns a list of human-readable problems; an empty list
means the output passed.  Golden files hold the outputs recorded for
the default workload seed: logits, the discrete per-block fields and
the three report CSVs.
"""

from __future__ import annotations

import math

LOGIT_TOL = 1e-9  # absolute, the acceptance-test tolerance
CSV_REL_TOL = 1e-9
BLOCK_FIELDS = ("n_a", "n_b", "n_groups", "n_residual", "ffn_tokens")


def block_fields(traces) -> list[list[int]]:
    """The discrete per-block fields of a forward, one row per block."""
    return [[int(getattr(tr, f)) for f in BLOCK_FIELDS] for tr in traces]


def check_logits(got, want, tol: float = LOGIT_TOL) -> list[str]:
    got = [float(v) for v in got]
    if not all(math.isfinite(v) for v in got):
        return ["logits are not finite"]
    if len(got) != len(want):
        return [f"logit count {len(got)} != golden {len(want)}"]
    worst = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
    if worst > tol:
        return [f"logits differ from golden by {worst:.3g} > {tol:g}"]
    return []


def check_blocks(got: list[list[int]], want: list[list[int]]) -> list[str]:
    if len(got) != len(want):
        return [f"block count {len(got)} != golden {len(want)}"]
    problems = []
    for b, (g, w) in enumerate(zip(got, want)):
        for field, gv, wv in zip(BLOCK_FIELDS, g, w):
            if gv != wv:
                problems.append(f"block {b} {field} = {gv}, golden {wv}")
    return problems


def check_invariant(rows: list[list[int]]) -> list[str]:
    """Every FFN token is the class token, an in-band token or a group."""
    problems = []
    for b, (_, n_b, n_groups, _, ffn_tokens) in enumerate(rows):
        if 1 + n_b + n_groups != ffn_tokens:
            problems.append(
                f"block {b}: 1 + n_b + n_groups = {1 + n_b + n_groups} != ffn_tokens {ffn_tokens}"
            )
    return problems


def _is_int(token: str) -> bool:
    return token.lstrip("-").isdigit()


def check_csv(got: str, want: str, rel_tol: float = CSV_REL_TOL) -> list[str]:
    """Integer fields must match exactly, float fields to ``rel_tol`` relative."""
    got_rows = got.splitlines()
    want_rows = want.splitlines()
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} CSV lines, golden has {len(want_rows)}"]
    if got_rows[:1] != want_rows[:1]:
        return [f"CSV header {got_rows[:1]} != golden {want_rows[:1]}"]
    header = want_rows[0].split(",")
    problems = []
    for r, (g_line, w_line) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1):
        g_fields, w_fields = g_line.split(","), w_line.split(",")
        if len(g_fields) != len(w_fields):
            problems.append(f"row {r}: {len(g_fields)} fields, golden {len(w_fields)}")
            continue
        for col, g, w in zip(header, g_fields, w_fields):
            if _is_int(g) and _is_int(w):
                same = int(g) == int(w)
            else:
                same = math.isclose(float(g), float(w), rel_tol=rel_tol, abs_tol=0.0)
            if not same:
                problems.append(f"row {r} {col} = {g}, golden {w}")
    return problems
