"""The benchmark runs and checks its own outputs: a short tiny-single run,
untraced and traced, must report correct outputs (golden logits and
report CSVs at seed 0, the wrappers around every traced library name),
and the benchmark's own tests must pass."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_tiny_single_run_is_correct(trace):
    res = run("perfbench/run.py", "--workload", "tiny-single", "--seed", "0",
              "--seconds", "2", "--trace", trace)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, res.stdout
    assert result["failed"] == 0


def test_benchmark_tests_pass():
    res = run("-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench")
    assert res.returncode == 0, res.stdout + res.stderr
