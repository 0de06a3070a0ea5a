"""scripts/bench_pairs.py cleans up after itself when it is stopped.

Its two ``git archive`` exports are full trees in the temp directory;
a SIGTERM must kill the running benchmark and remove both."""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "bench_pairs.py")


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
