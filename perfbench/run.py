#!/usr/bin/env python3
"""dirmarl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]   # every workload
    python3 perfbench/run.py --write-reference

One workload run times its main operation in a closed loop for
``--seconds`` and reports medians: ``run_experiment`` on the experiment
workloads, the full ``run_validation`` battery on ``validate``.  The
other end-to-end metrics come from fixed-size check phases that every
run performs (the quick claim-check battery on experiment workloads, a
short example1 experiment on ``validate``), so every metric exists on
every workload.  Every output is checked; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 1`` the run wraps the program's layers and reports
per-layer metrics instead; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread: the program's arrays are small, and the run must not
# load more threads than the machine has cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import tracing as tr  # noqa: E402
from calibration import SpeedSampler  # noqa: E402
from workloads import WORKLOADS, cluster_count, config_path, learning_edge_count  # noqa: E402

SETUP_SAMPLES = 10
CHECK_BATTERIES = 7       # quick batteries checked on experiment workloads
CHECK_EXPERIMENTS = 12    # short example1 experiments checked on validate
READS_PER_EXPERIMENT = 3  # summarize samples per timed experiment
MIN_SAMPLES = 3           # of the main operation, even past --seconds
REF_TOL = {"rel": 1e-9, "abs": 1e-12}
# oracle_moments and mc_smoothed_gradient calls per battery: 3 oracle
# means + 2 second-moment bounds + 8 x 2 scope-variance draws, and
# 2 graphs x 2 points x (global, local) smoothed-gradient estimates.
BATTERY_MOMENT_CALLS = 21
BATTERY_MC_GRADIENT_CALLS = 8
# The battery's checks are 3-sigma statistical tests; at arbitrary seeds
# about one battery in fifteen fails by chance (1 of 14 full, 3 of 40
# quick at this commit).  The benchmark therefore runs it at the
# program's default seed, the one the CLI and the test suite use, so a
# failure here means the program's numbers changed.
BATTERY_SEED = 0

SETUP_CODE = """\
import sys
from calibration import SpeedSampler

def setup():
    import dirmarl
    if sys.argv[1]:
        cfg = dirmarl.load_config(sys.argv[1])
        dirmarl.build_artifacts(cfg.graph)
        dirmarl.WarehouseEnv(cfg.warehouse)
        p = cfg.policy
        dirmarl.RbfPolicy(cfg.graph, num_centers=p.num_centers, stock_range=p.stock_range,
                          demand_range=p.demand_range, kernel=p.kernel)

_, seconds, scale = SpeedSampler(numpy_probe=False).run(setup)
print(repr(seconds), repr(scale))
"""

class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments)."""


# -- small helpers ------------------------------------------------------


def quartiles(values):
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def op_seed(seed: int, k: int) -> int:
    """Seed of the k-th operation of a run with benchmark seed ``seed``."""
    return 1000 * seed + k


def machine_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": BLAS_ENV, "commit": commit}


def import_program():
    sys.path.insert(0, SRC)
    try:
        import dirmarl
    except ImportError as exc:
        raise BenchError(f"cannot import the program from {SRC}: {exc}") from exc
    if not os.path.abspath(dirmarl.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported dirmarl from {dirmarl.__file__}, not from {SRC}")
    return dirmarl


# -- operations ---------------------------------------------------------


def plain_timer(fn):
    """(fn's result, seconds, scale 1): timing without speed sampling."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0, 1.0


def measure_setup(cfg_path: str | None) -> tuple[float, float]:
    """One set-up in a fresh interpreter: import, then (experiment
    inputs) load_config, build_artifacts, WarehouseEnv and RbfPolicy.
    Returns seconds and their scale to nominal speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    out = subprocess.run([sys.executable, "-c", SETUP_CODE, cfg_path or ""], env=env,
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise BenchError(f"set-up failed: {out.stderr.strip()[-2000:]}")
    seconds, scale = out.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(scale)


def traced_setup(dm, tracer, cfg_path: str, workload: str):
    with tracer.span("setup", lane=f"{workload}/setup"):
        cfg = dm.load_config(cfg_path)
        dm.build_artifacts(cfg.graph)
        dm.WarehouseEnv(cfg.warehouse)
        p = cfg.policy
        dm.RbfPolicy(cfg.graph, num_centers=p.num_centers, stock_range=p.stock_range,
                     demand_range=p.demand_range, kernel=p.kernel)


def experiment_op(dm, cfg, timer=plain_timer, reads=1):
    """run_experiment, then ``reads`` summarize calls on its output
    directory.  Returns the summary, the last read-back, the run's
    (seconds, scale) and a list of (seconds, scale) per read."""
    shutil.rmtree(cfg.output_dir, ignore_errors=True)
    summary, run_s, run_scale = timer(lambda: dm.run_experiment(cfg))
    times = []
    for _ in range(reads):
        back, read_s, read_scale = timer(lambda: dm.summarize(cfg.output_dir))
        times.append((read_s, read_scale))
    return summary, back, (run_s, run_scale), times


def battery_op(dm, quick: bool, timer=plain_timer):
    results, seconds, scale = timer(lambda: dm.run_validation(BATTERY_SEED, quick=quick))
    return results, (seconds, scale)


# -- output checks ------------------------------------------------------


def check_run_csv(path: str, epochs: int, n_learning: int) -> str | None:
    """Problem with one run CSV, read without the program's reader:
    one row per epoch, every value finite, |E_L| messages per episode."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return f"{os.path.basename(path)} unreadable: {exc}"
    name = os.path.basename(path)
    rows = [ln.split(",") for ln in lines[2:] if ln]
    if len(rows) != epochs:
        return f"{name} has {len(rows)} rows, expected {epochs}"
    for k, row in enumerate(rows):
        try:
            epoch, values, messages = int(row[0]), [float(x) for x in row[1:-1]], int(row[-1])
        except (ValueError, IndexError):
            return f"{name} row {k} does not parse: {','.join(row)[:200]}"
        if epoch != k:
            return f"{name} row {k} is epoch {epoch}"
        if not all(math.isfinite(x) for x in values):
            return f"{name} epoch {k} has a non-finite value"
        if messages != n_learning:
            return f"{name} epoch {k} carried {messages} messages, expected |E_L| = {n_learning}"
    return None


def check_experiment(cfg, summary, back, n_learning: int):
    """(lanes attempted, lanes failed, problems) of one experiment.  A
    lane fails when it aborted or its CSV is wrong; a wrong summary or
    read-back fails every lane."""
    lanes = [(a, r) for r in range(cfg.repeats) for a in cfg.algorithms]
    problems = [f"aborted {a} rep {r}: {why}" for a, r, why in summary.aborted]
    bad = {(a, r) for a, r, _ in summary.aborted}
    for a, r in lanes:
        if (a, r) in bad:
            continue
        why = check_run_csv(os.path.join(cfg.output_dir, f"{a}.rep{r:03d}.csv"),
                            cfg.epochs, n_learning)
        if why:
            problems.append(why)
            bad.add((a, r))
    whole = []
    for a in cfg.algorithms:
        if a not in summary.mean_value or a not in back.mean_value:
            whole.append(f"{a} missing from the summary or its read-back")
            continue
        mean, std = summary.mean_value[a], summary.std_value[a]
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
            whole.append(f"{a} summary has non-finite values")
        if not (np.allclose(back.mean_value[a], mean, rtol=1e-12, atol=0.0)
                and np.allclose(back.std_value[a], std, rtol=1e-12, atol=0.0)):
            whole.append(f"summarize() does not reproduce run_experiment's {a} statistics")
        want = len(summary.executed[a]) * cfg.epochs * n_learning
        if summary.total_messages[a] != want or back.total_messages[a] != want:
            whole.append(f"{a} message total {summary.total_messages[a]} / "
                         f"{back.total_messages[a]}, expected {want}")
        if summary.executed[a] != back.executed[a]:
            whole.append(f"{a} executed repeats differ after read-back")
    if tuple(map(tuple, back.aborted)) != tuple(map(tuple, summary.aborted)):
        whole.append("aborted runs differ after read-back")
    if whole:
        bad = set(lanes)
    return len(lanes), len(bad), problems + whole


def check_reference(name: str, cfg, summary) -> list[str]:
    """Per-algorithm final_mean and tail_std against the stored
    reference, within REF_TOL."""
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)[name]
    except (OSError, KeyError, ValueError) as exc:
        return [f"no stored reference for {name}: {exc}"]
    if (ref["epochs"], ref["master_seed"]) != (cfg.epochs, cfg.master_seed):
        return [f"stored reference for {name} is for epochs {ref['epochs']} seed "
                f"{ref['master_seed']}, the run used {cfg.epochs} / {cfg.master_seed}"]
    problems = []
    for alg, want in ref["algorithms"].items():
        if alg not in summary.mean_value:
            problems.append(f"reference algorithm {alg} did not complete")
            continue
        got = {"final_mean": summary.final_mean(alg), "tail_std": summary.tail_std(alg)}
        for key, value in got.items():
            if not math.isclose(value, want[key], rel_tol=REF_TOL["rel"],
                                abs_tol=REF_TOL["abs"]):
                problems.append(f"{name} {alg} {key} {value!r} != reference {want[key]!r}")
    return problems


# -- trace analysis -----------------------------------------------------


def expected_counts(cfg, n_learning: int) -> dict[str, int]:
    """Calls per run_experiment predicted from its config alone."""
    a, r, e, h = len(cfg.algorithms), cfg.repeats, cfg.epochs, cfg.horizon
    rollouts = r * e * sum(2 if alg.endswith("two_point") else 1 for alg in cfg.algorithms)
    episodes = a * r * e
    return {"graphs.build": 1, "learner.train": a * r, "learner.episode": episodes,
            "learner.exchange": episodes, "learner.finish": episodes,
            "oracles.estimate": episodes, "oracles.perturb": r * e, "warehouse.noise": r * e,
            "warehouse.rollout": rollouts, "policy.bind": rollouts,
            "policy.act": rollouts * h, "warehouse.transition": rollouts * h,
            "warehouse.check": rollouts * h, "warehouse.reward": rollouts * h,
            "warehouse.observe": 2 * rollouts * h,
            "experiments.csv_write": a * r, "experiments.summary_write": 1,
            "messages": episodes * n_learning}


def root_metrics(kind: str, root: list, spans: list[list], context) -> tuple[dict, list[str]]:
    """Per-layer metrics of one top-level span and its self-check
    problems.  ``context`` carries what the check derives counts from:
    the config and |E_L| for experiments, the lane count for summarize."""
    t = tr.totals(spans)
    calls = {k: v["calls"] for k, v in t.items()}

    def total(name):
        return t[name]["total_s"] if name in t else 0.0

    def attrs(name):
        return [s[tr.ATTR] for s in spans if s[tr.NAME] == name]

    m, problems, expect = {}, [], {}
    if kind == "setup":
        m["configio.load_s"] = total("configio.load")
        m["graphs.build_s"] = total("graphs.build")
        built = attrs("graphs.build")
        if built:
            m["graphs.learning_edges"], m["graphs.clusters"] = built[0]
        expect = {"configio.load": 1, "graphs.build": 1}
    elif kind == "experiments.run":
        cfg, n_learning = context
        episodes = calls.get("learner.episode", 0)
        rollouts = calls.get("warehouse.rollout", 0)
        trains = attrs("learner.train")
        messages = sum(attrs("learner.finish"))
        ep_self = sum(s[tr.END] - s[tr.START] - s[tr.CHILD] for s in spans
                      if s[tr.NAME] == "learner.episode")
        m.update({
            "warehouse.rollout_s": total("warehouse.rollout"),
            "warehouse.rollouts": rollouts,
            "warehouse.steps": calls.get("warehouse.transition", 0),
            "warehouse.observe_s": total("warehouse.observe"),
            "warehouse.check_s": total("warehouse.check"),
            "warehouse.transition_s": total("warehouse.transition"),
            "warehouse.reward_s": total("warehouse.reward"),
            "warehouse.noise_s": total("warehouse.noise"),
            "policy.act_s": total("policy.act"),
            "policy.act_calls": calls.get("policy.act", 0),
            "policy.bind_s": total("policy.bind"),
            "oracles.estimate_s": total("oracles.estimate"),
            "oracles.estimates": calls.get("oracles.estimate", 0),
            "oracles.perturb_s": total("oracles.perturb"),
            "learner.episode_s": total("learner.episode"),
            "learner.episode_self_s": ep_self,
            "learner.exchange_s": total("learner.exchange"),
            "learner.messages": messages,
            "learner.aborted": sum(a == "raised TrainingDiverged" for a in trains),
            "learner.rollouts_per_episode": rollouts / episodes if episodes else 0.0,
            "experiments.csv_write_s": total("experiments.csv_write"),
            "experiments.csv_bytes": sum(attrs("experiments.csv_write")),
            "experiments.summary_write_s": total("experiments.summary_write"),
            "experiments.runs_completed": calls.get("experiments.csv_write", 0),
            "experiments.runs_attempted": len(trains),
        })
        expect = expected_counts(cfg, n_learning)
        calls["messages"] = messages
    elif kind == "experiments.summarize":
        m["experiments.csv_read_s"] = total("experiments.csv_read")
        expect = {"experiments.csv_read": context}
    elif kind == "validation.battery":
        quick, failed = root[tr.ATTR]
        mc = 20_000 if quick else 100_000
        m["validation.moments_s"] = total("validation.moments")
        m["validation.moment_draws"] = sum(attrs("validation.moments"))
        m["validation.mc_gradient_s"] = total("validation.mc_gradient")
        m["validation.checks_failed"] = failed
        expect = {"validation.moments": BATTERY_MOMENT_CALLS,
                  "validation.mc_gradient": BATTERY_MC_GRADIENT_CALLS,
                  "draws": BATTERY_MOMENT_CALLS * mc}
        calls["draws"] = m["validation.moment_draws"]
    for name, want in expect.items():
        got = calls.get(name, 0)
        if got != want:
            problems.append(f"trace self-check: {kind} {name} counted {got}, "
                            f"config predicts {want}")
    return m, problems


# -- one workload -------------------------------------------------------


class Run:
    """Samples, counts and problems of one workload run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}   # normalised to nominal speed
        self.raw: dict[str, list[float]] = {}       # as measured
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, name: str, value: float, raw: float) -> None:
        self.samples.setdefault(name, []).append(value)
        self.raw.setdefault(name, []).append(raw)

    def record_experiment(self, cfg, summary, back, n_learning: int) -> None:
        attempted, failed, problems = check_experiment(cfg, summary, back, n_learning)
        self.attempted += attempted
        self.failed += failed
        self.problems += problems

    def record_battery(self, results) -> None:
        self.attempted += len(results)
        self.failed += sum(not c.passed for c in results)
        self.problems += [f"claim check {c.name} failed: {c.detail}"
                          for c in results if not c.passed]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    dm = import_program()
    # One CPU for the run and its set-up children, so that the speed
    # probe measures the core the timed work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _run_workload(dm, wl, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(dm, wl, seed, seconds, trace, work) -> dict:
    run = Run()
    cfg_path = config_path(wl, work, seed)
    base = dm.load_config(cfg_path)
    edges = sorted(base.graph.edges)
    n_learning = learning_edge_count(base.graph.num_agents, edges)
    arts = dm.build_artifacts(base.graph)
    inputs = {"agents": base.graph.num_agents, "edges": len(edges),
              "clusters": arts.clusters.num_clusters, "learning_edges": n_learning,
              "lanes": len(base.algorithms) * base.repeats,
              "epochs_per_experiment": wl.epochs}
    if len(arts.learning.edges) != n_learning:
        run.problems.append(f"program derives |E_L| = {len(arts.learning.edges)}, "
                            f"independent count {n_learning}")
        run.failed += 1
    if wl.name == "tree1k":
        clusters = cluster_count(base.graph.num_agents, edges)
        if clusters != inputs["clusters"]:
            run.problems.append(f"program finds {inputs['clusters']} clusters, "
                                f"independent count {clusters}")
            run.failed += 1
    out_dir = os.path.join(work, "run")

    def exp_cfg(master_seed, source=base):
        return dataclasses.replace(source, epochs=wl.epochs, master_seed=master_seed,
                                   output_dir=out_dir)

    # Stored-reference check on fixed inputs; it also warms caches.
    if wl.name == "tree1k":
        ref_base = dm.load_config(config_path(wl, work, wl.reference_seed))
        ref_learning = learning_edge_count(ref_base.graph.num_agents, ref_base.graph.edges)
    else:
        ref_base, ref_learning = base, n_learning
    ref_cfg = exp_cfg(wl.reference_seed, ref_base)
    summary, back, _, _ = experiment_op(dm, ref_cfg)
    run.record_experiment(ref_cfg, summary, back, ref_learning)
    ref_problems = check_reference(wl.name, ref_cfg, summary)
    if ref_problems:
        run.problems += ref_problems
        run.failed += len(ref_cfg.algorithms) * ref_cfg.repeats

    # Experiments are dominated by numpy calls on tiny arrays and are
    # normalised by a probe of that kind; the battery's bulk arrays
    # tracked a pure-Python probe better (window IQR 0.03 and 0.07, against
    # 0.07 and 0.10 for the numpy probe, in two 2-minute probes).
    dispatch_speed, python_speed = SpeedSampler(), SpeedSampler(numpy_probe=False)
    tracer = tr.Tracer() if trace else None
    contexts: list[tuple[int, object]] = []   # (root span index, self-check context)

    def under_trace(fn, context_of):
        """Run fn with the tracer installed; remember each new root span
        with the context its self-check needs."""
        first = len(tracer.spans)
        with tracer.installed():
            out = fn()
        for i in range(first, len(tracer.spans)):
            if tracer.spans[i][tr.PARENT] < 0:
                contexts.append((i, context_of(tracer.spans[i])))
        return out

    def experiment(k, traced=False):
        """One checked experiment on seed k; returns its run time."""
        cfg = exp_cfg(op_seed(seed, k))
        if traced:
            lanes = iter([f"{wl.name}/{a}/rep{r}" for r in range(cfg.repeats)
                          for a in cfg.algorithms])
            tracer.on_train = lambda args: next(lanes, f"{wl.name}/unexpected-lane")
            n_lanes = len(cfg.algorithms) * cfg.repeats
            summary, back, (run_s, _), _ = under_trace(
                lambda: experiment_op(dm, cfg),
                lambda root: (cfg, n_learning) if root[tr.NAME] == "experiments.run"
                else n_lanes)
        elif trace:  # untraced half of an overhead pair
            summary, back, (run_s, _), _ = experiment_op(dm, cfg)
        else:
            summary, back, (run_s, run_scale), reads = experiment_op(
                dm, cfg, dispatch_speed.run, READS_PER_EXPERIMENT)
            episodes = len(cfg.algorithms) * cfg.repeats * cfg.epochs
            run.add("episodes_per_s", episodes / (run_s * run_scale), episodes / run_s)
            for read_s, read_scale in reads:
                run.add("summarize_s", read_s * read_scale, read_s)
        run.record_experiment(cfg, summary, back, n_learning)
        return run_s

    def battery(quick, traced=False):
        """One checked claim-check battery; returns its time."""
        if traced:
            results, (battery_s, _) = under_trace(lambda: battery_op(dm, quick),
                                                  lambda root: None)
        elif trace:  # untraced half of an overhead pair
            results, (battery_s, _) = battery_op(dm, quick)
        else:
            results, (battery_s, scale) = battery_op(dm, quick, python_speed.run)
            run.add("battery_s", battery_s * scale, battery_s)
        run.record_battery(results)
        return battery_s

    def main_op(k, traced=False):
        return battery(False, traced) if wl.battery else experiment(k, traced)

    # Set-up.
    if trace:
        for _ in range(3):
            under_trace(lambda: traced_setup(dm, tracer, cfg_path, wl.name), lambda root: None)
    else:
        for _ in range(SETUP_SAMPLES):
            setup_s, scale = measure_setup(None if wl.battery else cfg_path)
            run.add("setup_s", setup_s * scale, setup_s)

    # Main operation, closed loop for `seconds`.  Traced runs alternate
    # untraced and traced passes of the same input, in alternating
    # order; their time ratio is the tracing overhead.
    overhead = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_SAMPLES or time.perf_counter() < deadline:
        k += 1
        if not trace:
            main_op(k)
        elif k % 2:
            t_plain = main_op(k)
            overhead.append(main_op(k, traced=True) / t_plain - 1.0)
        else:
            t_traced = main_op(k, traced=True)
            overhead.append(t_traced / main_op(k) - 1.0)

    # Check phases: fixed work, so every metric exists on every workload.
    if wl.battery:
        for j in range(1, CHECK_EXPERIMENTS + 1):
            experiment(10_000 + j, traced=trace)
    else:
        for _ in range(CHECK_BATTERIES):
            battery(True, traced=trace)

    result = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
              "inputs": inputs}
    if trace:
        layer = {}
        subtree = tracer.descendants()
        for i, context in contexts:
            root = tracer.spans[i]
            m, problems = root_metrics(root[tr.NAME], root, subtree[i], context)
            run.problems += problems
            run.failed += len(problems)
            for key, value in m.items():
                layer.setdefault(key, []).append(value)
        layer["trace.overhead_frac"] = overhead
        result["layers"] = layer
        result["shares"] = blocking_shares(tracer, subtree, contexts)
        result["absent"] = tracer.absent
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{seed}.csv.gz")
        tracer.write(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.add("peak_rss_mb", rss, rss)
        result["samples"], result["raw"] = run.samples, run.raw
    result.update(attempted=run.attempted, failed=run.failed, problems=run.problems)
    return result


def blocking_shares(tracer, subtree, contexts) -> dict:
    """Where the blocking time goes: shares of learner.episode time per
    child layer (summed over traced experiments) and of battery time
    spent in oracle_moments."""
    sums: dict[str, float] = {}
    for i, _ in contexts:
        root = tracer.spans[i]
        if root[tr.NAME] in ("experiments.run", "validation.battery"):
            sums[root[tr.NAME]] = sums.get(root[tr.NAME], 0.0) + root[tr.END] - root[tr.START]
            for name, t in tr.totals(subtree[i]).items():
                sums[name] = sums.get(name, 0.0) + t["total_s"]
                if name == "learner.episode":
                    sums["learner.episode.self"] = (sums.get("learner.episode.self", 0.0)
                                                    + t["self_s"])
    shares = {}
    episode = sums.get("learner.episode", 0.0)
    if episode:
        for name in ("warehouse.rollout", "learner.exchange", "oracles.estimate",
                     "policy.bind", "learner.episode.self"):
            shares[f"{name}/learner.episode"] = sums.get(name, 0.0) / episode
    run_s = sums.get("experiments.run", 0.0)
    if run_s:
        for name in ("learner.episode", "experiments.csv_write", "experiments.summary_write"):
            shares[f"{name}/experiments.run"] = sums.get(name, 0.0) / run_s
    battery = sums.get("validation.battery", 0.0)
    if battery:
        for name in ("validation.moments", "validation.mc_gradient"):
            shares[f"{name}/validation.battery"] = sums.get(name, 0.0) / battery
    return shares


# -- reporting ----------------------------------------------------------


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report(result: dict, spec: dict, machine: dict) -> dict:
    """Print the human-readable report; return the contract's JSON."""
    print(f"# workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']}  trace {int(result['trace'])}")
    print("# machine " + json.dumps(machine, sort_keys=True))
    print("# inputs " + json.dumps(result["inputs"], sort_keys=True))
    metrics = {}
    raw = {}
    if result["trace"]:
        wanted = spec["per_layer"]
        source = result["layers"]
        for line in result["absent"]:
            print(f"# absent: {line}")
        for key, share in sorted(result["shares"].items()):
            print(f"# share {key} = {share:.3f}")
        print(f"# spans written to {result['spans_file']}")
    else:
        wanted = spec["end_to_end"]
        source, raw = result["samples"], result["raw"]
        print("# times are scaled to nominal machine speed (perfbench/calibration.py); "
              "'measured' is the unscaled median")
    print(f"{'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>4s}"
          + (f" {'measured':>12s}" if raw else ""))
    for m in wanted:
        values = source.get(m["name"])
        if not values:
            print(f"{m['name']:34s} {m['unit']:6s} {'absent':>12s}")
            continue
        q1, med, q3 = quartiles(values)
        print(f"{m['name']:34s} {m['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{len(values):4d}"
              + (f" {statistics.median(raw[m['name']]):12.6g}" if raw else ""))
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
    failed_frac = result["failed"] / max(result["attempted"], 1)
    print(f"{'failed_frac':34s} {'1':6s} {failed_frac:12.6g}   "
          f"({result['failed']} of {result['attempted']} attempted)")
    for p in result["problems"]:
        print(f"# PROBLEM: {p}")
    correct = (not result["problems"] and result["failed"] == 0
               and len(metrics) == len(wanted))
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_all(args, spec) -> int:
    """Every workload, one child process each (peak memory is per
    process), one after the other; then a combined table."""
    combined, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"# {name}: exit {child.returncode}")
            status = 1
            continue
        combined[name] = json.loads(lines[-1])
        status |= not combined[name]["correct"]
    print("\n# all workloads")
    for name, res in combined.items():
        for metric, v in res["metrics"].items():
            print(f"{name:10s} {metric:34s} {v['value']:12.6g} {v['unit']}")
        print(f"{name:10s} {'failed_frac':34s} {res['failed'] / max(res['attempted'], 1):12.6g}"
              f" ({res['failed']}/{res['attempted']}) correct={res['correct']}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"results-trace{args.trace}-seed{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"machine": machine_record(), "results": combined}, fh, indent=2)
    return status


def write_reference() -> int:
    """Recompute reference.json from the current program (run this only
    when a change to the program's results is intended)."""
    dm = import_program()
    ref = {"tolerance": REF_TOL}
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for name, wl in WORKLOADS.items():
            base = dm.load_config(config_path(wl, work, wl.reference_seed))
            cfg = dataclasses.replace(base, epochs=wl.epochs, master_seed=wl.reference_seed,
                                      output_dir=os.path.join(work, "run"))
            summary, _, _, _ = experiment_op(dm, cfg)
            if summary.aborted:
                raise BenchError(f"{name} reference run aborted: {summary.aborted}")
            ref[name] = {"config": wl.config, "epochs": cfg.epochs,
                         "master_seed": cfg.master_seed,
                         "algorithms": {a: {"final_mean": summary.final_mean(a),
                                            "tail_std": summary.tail_std(a)}
                                        for a in cfg.algorithms}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE, ROOT)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.write_reference:
            return write_reference()
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.seconds <= 0 or args.seed < 0:
            raise BenchError("--seconds must be > 0 and --seed >= 0")
        if args.workload is None:
            return run_all(args, spec)
        machine = machine_record()
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        line = report(result, spec, machine)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
