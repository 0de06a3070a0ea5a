"""scripts/bench_pairs.py: the per-metric verdicts, and its clean-up
when it is stopped.

Its two ``git archive`` exports are full trees in the temp directory;
a SIGTERM must kill the running benchmark and remove both."""

from __future__ import annotations

import importlib.util
import os
import signal
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
metric_summary = bench_pairs.metric_summary


def test_claim_needs_nine_of_ten_wins_beyond_the_iqr():
    a = [10.0 + k for k in range(10)]  # median 14.5, IQR 5.5
    # B wins 9 of 10 pairs by 1 each: inside A's IQR, so no claim
    inside = metric_summary(a, [x - 1.0 for x in a[:9]] + [a[9] + 1.0], "lower", 0.25)
    assert (inside["B"]["wins"], inside["A"]["wins"]) == (9, 1)
    assert not inside["claim"] and not inside["beyond_bound"]
    # the same 9 wins by 8 each clear the IQR
    beyond = metric_summary(a, [x - 8.0 for x in a[:9]] + [a[9] + 1.0], "lower", 0.25)
    assert beyond["claim"]
    # 8 wins are too few, however large
    eight = metric_summary(a, [x - 8.0 for x in a[:8]] + [a[8] + 1.0, a[9] + 1.0],
                           "lower", 0.25)
    assert eight["B"]["wins"] == 8 and not eight["claim"]
    # "higher is better" mirrors it
    assert metric_summary(a, [x + 8.0 for x in a], "higher", 0.25)["claim"]
    assert not metric_summary(a, [x + 8.0 for x in a], "lower", 0.25)["claim"]


def test_a_tie_counts_for_neither_side():
    a = [1.0, 2.0, 3.0, 4.0]
    s = metric_summary(a, [1.0, 1.0, 3.0, 5.0], "lower", 0.25)
    assert (s["A"]["wins"], s["B"]["wins"]) == (1, 1)
    # all ties: no claim, however narrow A's IQR
    s = metric_summary([2.0] * 10, [2.0] * 10, "lower", 0.25)
    assert (s["A"]["wins"], s["B"]["wins"], s["claim"]) == (0, 0, False)


def test_a_failed_run_loses_its_pair():
    a = [100.0] * 10
    b = [1.0] * 9 + [None]
    s = metric_summary(a, b, "lower", 0.25)
    assert (s["A"]["wins"], s["B"]["wins"]) == (1, 9)
    assert s["claim"]  # 9 of 10 still claims
    s = metric_summary(a, [1.0] * 8 + [None, None], "lower", 0.25)
    assert (s["A"]["wins"], s["B"]["wins"], s["claim"]) == (2, 8, False)
    assert metric_summary([None, None], [1.0, 2.0], "lower", 0.25) is None


def test_beyond_bound_is_relative_to_the_parent_median():
    a = [10.0] * 5
    assert not metric_summary(a, [12.5] * 5, "lower", 0.25)["beyond_bound"]
    assert metric_summary(a, [12.6] * 5, "lower", 0.25)["beyond_bound"]
    assert not metric_summary(a, [7.5] * 5, "higher", 0.25)["beyond_bound"]
    assert metric_summary(a, [7.4] * 5, "higher", 0.25)["beyond_bound"]
    assert not metric_summary(a, [1.0] * 5, "lower", 0.25)["beyond_bound"]


def test_sigterm_removes_both_exports(tmp_path):
    probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "HEAD"],
                           capture_output=True)
    if probe.returncode != 0:
        pytest.skip("needs a git checkout with a commit")
    # No bytecode: the benchmark's set-up interpreter, orphaned when its
    # parent is killed, must not write into an export being removed.
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, SCRIPT, "HEAD", "HEAD", "--workload", "example1",
                             "--pairs", "1"], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        for line in proc.stdout:  # "# B = ..." is printed once both exports exist
            if line.startswith("# B = "):
                break
        exports = [p for p in tmp_path.iterdir() if (p / "BENCHMARK.json").is_file()]
        assert len(exports) == 2
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) != 0
    finally:
        proc.kill()
        proc.stdout.close()
        proc.wait()
    assert list(tmp_path.iterdir()) == []
