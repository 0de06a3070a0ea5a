#!/usr/bin/env python3
"""Alternating benchmark pairs on two git revisions.

    python3 scripts/bench_pairs.py REV_A REV_B --workload W [--pairs 10] [--seed S]

Each revision is exported with ``git archive`` into its own temporary
directory, so the checkout and its ``.git`` stay untouched.  Each pair
runs ``perfbench/run.py --workload W --seed S`` once on either export,
in alternating order (A first on even pairs, B first on odd ones), so
a drift of the machine's speed does not favour one side.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles over the pairs, B's relative change of the median,
the interquartile range of A's runs, and in how many pairs B was better
(by the metric's ``better`` direction).  A run that exits non-zero or
reports ``correct: false`` is listed and counts as a lost pair.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, dest: str) -> str:
    """Extract ``rev``'s tree into ``dest``; return the full commit id."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return sha


def run_once(root: str, workload: str, seed: int) -> dict | None:
    """One benchmark run in ``root`` at the benchmark's own run length;
    its end-to-end medians, or None when it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    with tempfile.TemporaryDirectory() as dir_a, tempfile.TemporaryDirectory() as dir_b:
        sides = {"A": (args.rev_a, dir_a), "B": (args.rev_b, dir_b)}
        for label, (rev, root) in sides.items():
            print(f"# {label} = {rev} ({export(rev, root)})", flush=True)
        with open(os.path.join(dir_b, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)["end_to_end"]

        runs: dict[str, list[dict | None]] = {"A": [], "B": []}
        for k in range(args.pairs):
            for label in ("AB" if k % 2 == 0 else "BA"):
                res = run_once(sides[label][1], args.workload, args.seed)
                runs[label].append(res)
                print(f"# pair {k + 1} {label}: "
                      + (json.dumps(res, sort_keys=True) if res else "FAILED"), flush=True)

    print(f"\n# workload {args.workload}  seed {args.seed}  pairs {args.pairs}")
    print(f"{'metric':16s} {'A median':>11s} {'A q1':>11s} {'A q3':>11s} "
          f"{'B median':>11s} {'B q1':>11s} {'B q3':>11s} {'change':>8s} "
          f"{'A IQR':>10s} {'B wins':>7s}")
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        a = [r[name] for r in runs["A"] if r and name in r]
        b = [r[name] for r in runs["B"] if r and name in r]
        if not a or not b:
            print(f"{name:16s} absent")
            continue
        wins = sum(1 for ra, rb in zip(runs["A"], runs["B"])
                   if ra and rb and (rb[name] < ra[name] if lower else rb[name] > ra[name]))
        qa, qb = quartiles(a), quartiles(b)
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
        print(f"{name:16s} {qa[1]:11.5g} {qa[0]:11.5g} {qa[2]:11.5g} "
              f"{qb[1]:11.5g} {qb[0]:11.5g} {qb[2]:11.5g} {change:+8.1%} "
              f"{qa[2] - qa[0]:10.3g} {wins:4d}/{args.pairs}")
    failed = {label: sum(r is None for r in rs) for label, rs in runs.items()}
    if any(failed.values()):
        print(f"# failed runs: A {failed['A']}, B {failed['B']}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
