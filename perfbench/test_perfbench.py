"""Self-tests of the benchmark's span arithmetic and golden comparator.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import math
import types

from checks import check_blocks, check_csv, check_invariant, check_logits
from run import median_of_means
from spans import Tracer, covered_length, self_times


def span(name, start, end, parent=-1, request=0):
    return [name, start, end, parent, request]


def test_self_time_subtracts_children():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 3.0, 0), span("b", 5.0, 9.0, 0),
             span("leaf", 6.0, 7.0, 2)]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 4.0, 6.0, 0)]
    assert self_times(spans)[0] == 5.0


def test_covered_length_clips_to_the_parent():
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(3.0, 3.0)], 0.0, 10.0) == 0.0


def test_tracer_wraps_nests_and_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.ModuleType("pkg.mod")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original_inner = mod.inner
    tracer.wrap(mod, "inner")
    tracer.wrap(mod, "outer")
    tracer.request = 7
    assert mod.outer(1) == 4
    tracer.unwrap_all()
    assert mod.inner is original_inner
    names = [s[0] for s in tracer.spans]
    assert names == ["mod.outer", "mod.inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert all(s[4] == 7 for s in tracer.spans)
    # outer spans ticks 0..3, inner 1..2
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()
    mod = types.ModuleType("m")

    def boom():
        raise ValueError("x")

    mod.boom = boom
    tracer.wrap(mod, "boom")
    try:
        mod.boom()
    except ValueError:
        pass
    assert tracer.spans[0][2] >= tracer.spans[0][1]
    with tracer.span("after"):
        pass
    assert tracer.spans[1][3] == -1


ROWS = [[0, 16, 0, 0, 17], [6, 10, 2, 1, 13]]


def test_blocks_equal_pass():
    assert check_blocks(ROWS, [list(r) for r in ROWS]) == []


def test_discrete_field_flip_fails():
    flipped = [list(r) for r in ROWS]
    flipped[1][2] = 3  # n_groups
    problems = check_blocks(flipped, ROWS)
    assert len(problems) == 1 and "n_groups" in problems[0]


def test_counting_invariant():
    assert check_invariant(ROWS) == []
    assert check_invariant([[6, 10, 2, 1, 14]]) != []


def test_logits_within_tolerance_pass():
    want = [1.0, -2.5, 3.25]
    assert check_logits([1.0 + 5e-10, -2.5, 3.25 - 9e-10], want) == []


def test_logit_drift_past_tolerance_fails():
    want = [1.0, -2.5, 3.25]
    assert check_logits([1.0, -2.5 + 2e-9, 3.25], want) != []


def test_non_finite_logits_fail():
    assert check_logits([1.0, math.nan], [1.0, 2.0]) != []
    assert check_logits([math.inf], [math.inf]) != []


CSV = "block,mean_s,n_a\n0,0.123456789,12\n1,-1.5e-05,3\n"


def test_csv_identical_pass():
    assert check_csv(CSV, CSV) == []


def test_csv_float_within_relative_tolerance_pass():
    assert check_csv(CSV.replace("0.123456789", "0.12345678905"), CSV) == []


def test_csv_float_drift_past_tolerance_fails():
    problems = check_csv(CSV.replace("-1.5e-05", "-1.50001e-05"), CSV)
    assert len(problems) == 1 and "mean_s" in problems[0]


def test_csv_integer_field_change_fails():
    problems = check_csv(CSV.replace(",12\n", ",13\n"), CSV)
    assert len(problems) == 1 and "n_a" in problems[0]


def test_csv_shape_change_fails():
    assert check_csv(CSV + "2,0.5,1\n", CSV) != []


def test_median_of_means_blends_within_slices():
    # two host states within every slice: the slice means blend them
    samples = [2.0, 4.0] * 10
    assert median_of_means(samples, groups=5) == 3.0
    # one slow slice out of five does not move the median
    assert median_of_means([1.0] * 8 + [9.0, 9.0], groups=5) == 1.0
    # fewer samples than slices: a plain median
    assert median_of_means([3.0, 1.0, 2.0], groups=5) == 2.0
