"""Experiment driver: seeded runs, CSV artifacts, and summaries.

One experiment is (config, master_seed) -> an output directory with

    <algorithm>.rep<RRR>.csv   per-episode rows for each run
    summary.csv / summary.json cross-repeat statistics
    manifest.json              config echo, seeds, versions, timing
    checkpoints/               parameter snapshots when enabled

Within a repeat every algorithm consumes the same pre-drawn
perturbation and environment-noise streams and starts from the same
zero parameter, so algorithm curves are directly comparable.  Streams
are derived by seed-sequence spawning, which makes every (repeat,
algorithm) run independent of which other runs execute: run CSVs are
byte-identical across full and partial re-runs of the same seed.
Wall-clock timing lives only in the manifest for exactly that reason.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import time
from dataclasses import dataclass

import numpy as np

from .configio import ExperimentConfig
from .graphs import build_artifacts
from .learner import (
    ALGORITHMS,
    MessageBus,
    TrainingDiverged,
    WarehouseEvaluator,
    parse_algorithm,
    train,
)
from .oracles import sample_perturbation
from .policy import NonFiniteScores, RbfPolicy
from .warehouse import RolloutError, WarehouseEnv

CSV_MAGIC = "# dirmarl run csv v1"
MANIFEST_NAME = "manifest.json"


def run_file_name(algorithm: str, repeat: int) -> str:
    return f"{algorithm}.rep{repeat:03d}.csv"


@functools.cache  # a batch writes and reads many runs of one agent count
def _run_csv_header(num_agents: int) -> str:
    return ",".join(["epoch"]
                    + [f"value_{i}" for i in range(1, num_agents + 1)]
                    + ["global_value"]
                    + [f"grad_norm_{i}" for i in range(1, num_agents + 1)]
                    + ["messages"])


def write_run_csv(path: str, records, num_agents: int) -> None:
    # "%.17g" % x gives the bytes of f"{float(x):.17g}": 17 significant
    # digits, which read back to the same double
    row = "%d," + ",".join(["%.17g"] * (2 * num_agents + 1)) + ",%d"
    lines = [CSV_MAGIC, _run_csv_header(num_agents)]
    lines += [row % (rec.epoch, *rec.observed_values.tolist(), rec.global_value,
                     *rec.gradient_norms.tolist(), rec.message_count)
              for rec in records]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class RunTable:
    """One run CSV read back into arrays."""

    epochs: np.ndarray        # (K,)
    values: np.ndarray        # (K, N) per-agent observed values
    global_values: np.ndarray  # (K,)
    grad_norms: np.ndarray    # (K, N)
    messages: np.ndarray      # (K,)


def read_run_csv(path: str) -> RunTable:
    """Read a run CSV back; a header other than the columns
    ``write_run_csv`` writes, or a row whose cell count differs from the
    header's or that holds a non-number, is an error that names
    ``path:line``."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from exc
    if len(lines) < 2 or lines[0] != CSV_MAGIC:
        raise ValueError(f"{path} is not a dirmarl run csv (missing {CSV_MAGIC!r} "
                         "and a header)")
    header = lines[1].split(",")
    n = sum(1 for c in header if c.startswith("value_"))
    if lines[1] != _run_csv_header(n):
        raise ValueError(f"{path}:2: header is not the run csv columns for {n} agents "
                         "(epoch, value_i, global_value, grad_norm_i, messages)")
    rows = []
    for lineno, ln in enumerate(lines[2:], start=3):
        if not ln:
            continue
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}:{lineno}: {len(cells)} cells, the header has {len(header)}")
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    data = np.array(rows, dtype=float).reshape(-1, len(header))
    return RunTable(
        epochs=data[:, 0].astype(int),
        values=data[:, 1:1 + n],
        global_values=data[:, 1 + n],
        grad_norms=data[:, 2 + n:2 + 2 * n],
        messages=data[:, 2 + 2 * n].astype(int),
    )


@dataclass(frozen=True)
class RunSummary:
    """Cross-repeat statistics, recomputable from the raw run CSVs."""

    algorithms: tuple[str, ...]
    repeats: int
    num_epochs: int
    mean_value: dict        # algorithm -> (K,) cross-repeat mean global value
    std_value: dict         # algorithm -> (K,) cross-repeat sample std
    total_messages: dict    # algorithm -> messages summed over repeats
    executed: dict          # algorithm -> tuple of completed repeat indices
    aborted: tuple          # (algorithm, repeat, reason)

    def final_mean(self, algorithm: str) -> float:
        return float(self.mean_value[algorithm][-1])

    def final_std(self, algorithm: str) -> float:
        return float(self.std_value[algorithm][-1])

    def tail_std(self, algorithm: str, window: int = 100) -> float:
        """Cross-repeat std of the global value averaged over the last
        ``window`` epochs."""
        w = min(window, self.num_epochs)
        return float(self.std_value[algorithm][-w:].mean())

    def variance_table(self, window: int = 100) -> dict:
        """Distributed versus centralized tail std per oracle flavor,
        for the flavors where both scopes were run."""
        table = {}
        for flavor in ("one_point", "two_point", "residual"):
            dist, cent = f"distributed_{flavor}", f"centralized_{flavor}"
            if dist in self.mean_value and cent in self.mean_value:
                table[flavor] = {"distributed": self.tail_std(dist, window),
                                 "centralized": self.tail_std(cent, window)}
        return table


def _build_summary(algorithms, repeats: int, epochs: int, runs: dict,
                   aborted) -> RunSummary:
    """Cross-repeat statistics of ``runs[alg][repeat] = (global values,
    message total)``, one entry per completed run; an algorithm without
    one is left out of the per-algorithm maps."""
    mean_value, std_value, messages, executed = {}, {}, {}, {}
    for alg in algorithms:
        done = sorted(runs[alg])
        if not done:
            continue
        stack = np.stack([runs[alg][r][0] for r in done])
        mean_value[alg] = stack.mean(axis=0)
        std_value[alg] = (stack.std(axis=0, ddof=1) if len(done) > 1
                          else np.zeros_like(mean_value[alg]))
        messages[alg] = int(sum(runs[alg][r][1] for r in done))
        executed[alg] = tuple(done)
    return RunSummary(tuple(algorithms), repeats, epochs, mean_value, std_value, messages,
                      executed, tuple(tuple(a) for a in aborted))


def _summary_payload(summary: RunSummary, window: int = 100) -> dict:
    per_alg = {}
    for alg in summary.algorithms:
        if alg not in summary.mean_value:
            continue
        per_alg[alg] = {
            "final_mean": summary.final_mean(alg),
            "final_std": summary.final_std(alg),
            "tail_std": summary.tail_std(alg, window),
            "initial_mean": float(summary.mean_value[alg][0]),
            "total_messages": summary.total_messages[alg],
            "repeats": list(summary.executed[alg]),
        }
    return {"format": "dirmarl summary v1",
            "num_epochs": summary.num_epochs,
            "algorithms": per_alg,
            "variance_table": summary.variance_table(window),
            "aborted": [list(a) for a in summary.aborted]}


def write_summary(out_dir: str, summary: RunSummary) -> None:
    lines = ["algorithm,epoch,mean_value,std_value"]
    for alg in summary.algorithms:
        if alg not in summary.mean_value:
            continue
        mean, std = summary.mean_value[alg].tolist(), summary.std_value[alg].tolist()
        lines += [f"{alg},{k},{mean[k]:.17g},{std[k]:.17g}" for k in range(summary.num_epochs)]
    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(_summary_payload(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_parameters(path: str, theta: np.ndarray, epoch: int) -> None:
    np.savez(path, theta=np.asarray(theta, dtype=float), epoch=np.int64(epoch))


def run_experiment(cfg: ExperimentConfig, *, repeat_indices=None) -> RunSummary:
    """Execute the full (algorithm x repeat) matrix and write all
    artifacts into ``cfg.output_dir``.

    ``repeat_indices`` restricts execution to a subset of repeats
    without changing what any individual run computes; an index given
    twice runs once.  A run that diverges, whose rollout aborts or whose
    allocation scores turn non-finite is recorded in ``aborted`` with
    its cause and the remaining runs continue; any other error
    propagates.
    """
    started = time.perf_counter()
    repeats = range(cfg.repeats) if repeat_indices is None else sorted(set(repeat_indices))
    for r in repeats:
        if not 0 <= r < cfg.repeats:
            raise ValueError(f"repeat index {r} outside 0..{cfg.repeats - 1}")
    out = cfg.output_dir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ValueError(f"cannot create output directory {out}: {exc.strerror}") from exc
    env = WarehouseEnv(cfg.warehouse)
    policy = RbfPolicy(cfg.graph, num_centers=cfg.policy.num_centers,
                       stock_range=cfg.policy.stock_range,
                       demand_range=cfg.policy.demand_range,
                       kernel=cfg.policy.kernel)
    bus = MessageBus(build_artifacts(cfg.graph).learning)
    ev = WarehouseEvaluator(env, policy, cfg.horizon, cfg.discount)
    layout = policy.layout
    theta0 = np.zeros(layout.total_dim)

    ckpt_dir = os.path.join(out, "checkpoints")
    if cfg.checkpoint_every > 0:
        os.makedirs(ckpt_dir, exist_ok=True)

    learners = {alg: parse_algorithm(alg, cfg.delta, cfg.eta) for alg in cfg.algorithms}
    runs = {alg: {} for alg in cfg.algorithms}
    aborted = []
    children = np.random.SeedSequence(cfg.master_seed).spawn(cfg.repeats)
    for r in repeats:
        pert_seq, noise_seq = children[r].spawn(2)
        pert_rng = np.random.default_rng(pert_seq)
        noise_rng = np.random.default_rng(noise_seq)
        perturbations = [sample_perturbation(layout, pert_rng) for _ in range(cfg.epochs)]
        traces = [env.draw_noise_trace(cfg.horizon, noise_rng) for _ in range(cfg.epochs)]
        for alg in cfg.algorithms:
            on_episode = None
            if cfg.checkpoint_every > 0:
                def on_episode(k, theta, rec, alg=alg, r=r):
                    if (k + 1) % cfg.checkpoint_every == 0 or k + 1 == cfg.epochs:
                        save_parameters(
                            os.path.join(ckpt_dir, f"{alg}.rep{r:03d}.ep{k + 1:05d}.npz"),
                            theta, k + 1)
            try:
                records, _ = train(theta0, ev, learners[alg], bus, perturbations, traces,
                                   on_episode=on_episode)
            except TrainingDiverged as exc:
                aborted.append((alg, r, str(exc)))
                continue
            except (RolloutError, NonFiniteScores) as exc:
                aborted.append((alg, r, f"{type(exc).__name__}: {exc}"))
                continue
            write_run_csv(os.path.join(out, run_file_name(alg, r)),
                          records, cfg.graph.num_agents)
            runs[alg][r] = (np.array([rec.global_value for rec in records]),
                            sum(rec.message_count for rec in records))

    summary = _build_summary(cfg.algorithms, cfg.repeats, cfg.epochs, runs, aborted)
    write_summary(out, summary)
    manifest = {
        "format": "dirmarl manifest v1",
        "config": cfg.echo(),
        "repeats_run": list(repeats),
        "aborted": [list(a) for a in aborted],
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__,
                     "dirmarl": _package_version()},
        "wall_clock_seconds": time.perf_counter() - started,
    }
    with open(os.path.join(out, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _package_version() -> str:
    from . import __version__
    return __version__


def summarize(run_dir: str) -> RunSummary:
    """Recompute the cross-repeat statistics from the raw CSVs of a
    finished run directory.  Missing runs are an error that lists every
    absent file; a run CSV whose rows are not the manifest's epochs
    0..K-1 is an error that names it."""
    manifest_path = os.path.join(run_dir, MANIFEST_NAME)
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{run_dir} has no readable {MANIFEST_NAME}: {exc}") from exc

    def field(key, valid, what, *default):
        node = manifest
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                if default:  # an optional key, absent
                    return default[0]
                raise ValueError(f"{manifest_path}: {key} is missing")
            node = node[part]
        if not valid(node):
            raise ValueError(f"{manifest_path}: {key} must be {what}, got {node!r}")
        return node

    def count(v):
        return type(v) is int and v >= 1

    algorithms = tuple(field(
        "config.experiment.algorithms",
        lambda v: isinstance(v, list) and v and all(a in ALGORITHMS for a in v),
        f"a non-empty list of names from {ALGORITHMS}"))
    repeats = field("config.experiment.repeats", count, "an integer >= 1")
    epochs = field("config.learner.epochs", count, "an integer >= 1")

    def repeat(v):
        return type(v) is int and 0 <= v < repeats

    repeats_run = field("repeats_run", lambda v: isinstance(v, list) and all(map(repeat, v)),
                        f"a list of repeat indices in 0..{repeats - 1}", range(repeats))
    aborted = field("aborted", lambda v: isinstance(v, list) and all(
        isinstance(a, list) and len(a) == 3 and a[0] in algorithms and repeat(a[1]) for a in v),
                    "a list of [algorithm, repeat, reason] entries", [])
    skip = {(a, r) for a, r, _ in aborted}

    missing = []
    runs = {alg: {} for alg in algorithms}
    for alg in algorithms:
        for r in repeats_run:
            if (alg, r) in skip:
                continue
            path = os.path.join(run_dir, run_file_name(alg, r))
            if not os.path.exists(path):
                missing.append(run_file_name(alg, r))
                continue
            table = read_run_csv(path)
            if not np.array_equal(table.epochs, np.arange(epochs)):
                raise ValueError(f"{path}: rows must be the manifest's epochs "
                                 f"0..{epochs - 1} in order, got {len(table.epochs)} rows")
            runs[alg][r] = (table.global_values, table.messages.sum())
    if missing:
        raise ValueError(f"{run_dir} is incomplete; missing runs: {', '.join(missing)}")
    return _build_summary(algorithms, repeats, epochs, runs, aborted)
