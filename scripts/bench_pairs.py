#!/usr/bin/env python3
"""Alternating benchmark pairs on two git revisions.

    python3 scripts/bench_pairs.py REV_A REV_B --workload W [--pairs 10] [--seed S]
                                   [--json PATH]

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

``--json PATH`` also writes a machine-readable record: the machine as
the benchmark reports it (nproc, CPU, Python, numpy), both full commit
ids, and one entry per (workload, seed) holding, per end-to-end metric,
each side's median, quartiles, IQR and pair wins.  An existing file for
the same two commits gains the entry (replacing one for the same
workload and seed), so one file can hold several workloads.
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


def run_once(root: str, workload: str, seed: int, machine: dict) -> dict | None:
    """One benchmark run in ``root`` at the benchmark's own run length;
    its end-to-end medians, or None when it failed.  The run's machine
    record is stored into ``machine``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("# machine "):
            machine.update(json.loads(line[len("# machine "):]))
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


def existing_record(path: str, commits: dict) -> dict | None:
    """The record already at ``path``, or None; exits when it holds
    results for other commits."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if record["commits"] != commits:
        sys.exit(f"{path} holds results for commits {record['commits']}, not {commits}")
    return record


def write_json(path: str, machine: dict, commits: dict, entry: dict) -> None:
    """Add ``entry`` to the record at ``path`` for these two commits."""
    machine = {k: v for k, v in machine.items() if k != "commit"}  # exports have no .git
    record = (existing_record(path, commits)
              or {"machine": machine, "commits": commits, "results": []})
    record["results"] = [r for r in record["results"]
                         if (r["workload"], r["seed"]) != (entry["workload"], entry["seed"])]
    record["results"].append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", metavar="PATH", help="also write the results as JSON to PATH")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    machine: dict = {}
    commits = {}
    with tempfile.TemporaryDirectory() as dir_a, tempfile.TemporaryDirectory() as dir_b:
        sides = {"A": (args.rev_a, dir_a), "B": (args.rev_b, dir_b)}
        for label, (rev, root) in sides.items():
            commits[label] = export(rev, root)
            print(f"# {label} = {rev} ({commits[label]})", flush=True)
        if args.json:  # before any run, so a mismatch throws no results away
            existing_record(args.json, commits)
        with open(os.path.join(dir_b, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)["end_to_end"]

        runs: dict[str, list[dict | None]] = {"A": [], "B": []}
        for k in range(args.pairs):
            for label in ("AB" if k % 2 == 0 else "BA"):
                res = run_once(sides[label][1], args.workload, args.seed, machine)
                runs[label].append(res)
                print(f"# pair {k + 1} {label}: "
                      + (json.dumps(res, sort_keys=True) if res else "FAILED"), flush=True)

    print(f"\n# workload {args.workload}  seed {args.seed}  pairs {args.pairs}")
    print(f"{'metric':16s} {'A median':>11s} {'A q1':>11s} {'A q3':>11s} "
          f"{'B median':>11s} {'B q1':>11s} {'B q3':>11s} {'change':>8s} "
          f"{'A IQR':>10s} {'B wins':>7s}")
    metrics = {}
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        a = [r[name] for r in runs["A"] if r and name in r]
        b = [r[name] for r in runs["B"] if r and name in r]
        if not a or not b:
            print(f"{name:16s} absent")
            continue
        both = [(ra[name], rb[name]) for ra, rb in zip(runs["A"], runs["B"]) if ra and rb]
        wins = {"A": sum(1 for va, vb in both if (va < vb if lower else va > vb)),
                "B": sum(1 for va, vb in both if (vb < va if lower else vb > va))}
        qa, qb = quartiles(a), quartiles(b)
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
        metrics[name] = {"unit": m["unit"], "better": m["better"], "change": change, **{
            label: {"median": q[1], "q1": q[0], "q3": q[2], "iqr": q[2] - q[0],
                    "wins": wins[label]} for label, q in (("A", qa), ("B", qb))}}
        print(f"{name:16s} {qa[1]:11.5g} {qa[0]:11.5g} {qa[2]:11.5g} "
              f"{qb[1]:11.5g} {qb[0]:11.5g} {qb[2]:11.5g} {change:+8.1%} "
              f"{qa[2] - qa[0]:10.3g} {wins['B']:4d}/{args.pairs}")
    failed = {label: sum(r is None for r in rs) for label, rs in runs.items()}
    if args.json:
        write_json(args.json, machine, commits, {
            "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
            "failed": failed, "metrics": metrics})
    if any(failed.values()):
        print(f"# failed runs: A {failed['A']}, B {failed['B']}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
