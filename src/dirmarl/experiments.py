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

import json
import os
import platform
import time
from dataclasses import dataclass

import numpy as np

from .configio import ExperimentConfig
from .graphs import build_artifacts
from .learner import (
    LearnerConfig,
    MessageBus,
    TrainingDiverged,
    WarehouseEvaluator,
    parse_algorithm,
    train,
)
from .oracles import sample_perturbation
from .policy import RbfPolicy
from .warehouse import WarehouseEnv

CSV_MAGIC = "# dirmarl run csv v1"
MANIFEST_NAME = "manifest.json"


def run_file_name(algorithm: str, repeat: int) -> str:
    return f"{algorithm}.rep{repeat:03d}.csv"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_run_csv(path: str, records, num_agents: int) -> None:
    cols = (["epoch"]
            + [f"value_{i}" for i in range(1, num_agents + 1)]
            + ["global_value"]
            + [f"grad_norm_{i}" for i in range(1, num_agents + 1)]
            + ["messages"])
    lines = [CSV_MAGIC, ",".join(cols)]
    for rec in records:
        row = ([str(rec.epoch)]
               + [_fmt(v) for v in rec.observed_values]
               + [_fmt(rec.global_value)]
               + [_fmt(g) for g in rec.gradient_norms]
               + [str(rec.message_count)])
        lines.append(",".join(row))
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
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != CSV_MAGIC:
        raise ValueError(f"{path} is not a dirmarl run csv (missing {CSV_MAGIC!r})")
    header = lines[1].split(",")
    n = sum(1 for c in header if c.startswith("value_"))
    data = np.array([[float(cell) for cell in ln.split(",")]
                     for ln in lines[2:] if ln], dtype=float)
    data = data.reshape(-1, len(header))
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


def _stats(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    stack = np.stack(rows)
    mean = stack.mean(axis=0)
    std = stack.std(axis=0, ddof=1) if len(rows) > 1 else np.zeros_like(mean)
    return mean, std


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
        mean, std = summary.mean_value[alg], summary.std_value[alg]
        for k in range(summary.num_epochs):
            lines.append(f"{alg},{k},{_fmt(mean[k])},{_fmt(std[k])}")
    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(_summary_payload(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_parameters(path: str, theta: np.ndarray, epoch: int) -> None:
    np.savez(path, theta=np.asarray(theta, dtype=float), epoch=np.int64(epoch))


def load_parameters(path: str) -> tuple[np.ndarray, int]:
    with np.load(path) as data:
        return data["theta"].copy(), int(data["epoch"])


def run_experiment(cfg: ExperimentConfig, *, repeat_indices=None) -> RunSummary:
    """Execute the full (algorithm x repeat) matrix and write all
    artifacts into ``cfg.output_dir``.

    ``repeat_indices`` restricts execution to a subset of repeats
    without changing what any individual run computes; an index given
    twice runs once.  A diverging run is recorded in the manifest and
    the remaining runs continue.
    """
    started = time.perf_counter()
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    env = WarehouseEnv(cfg.warehouse)
    policy = RbfPolicy(cfg.graph, num_centers=cfg.policy.num_centers,
                       stock_range=cfg.policy.stock_range,
                       demand_range=cfg.policy.demand_range,
                       kernel=cfg.policy.kernel)
    arts = build_artifacts(cfg.graph)
    layout = policy.layout
    theta0 = np.zeros(layout.total_dim)
    repeats = range(cfg.repeats) if repeat_indices is None else sorted(set(repeat_indices))
    for r in repeats:
        if not 0 <= r < cfg.repeats:
            raise ValueError(f"repeat index {r} outside 0..{cfg.repeats - 1}")

    ckpt_dir = os.path.join(out, "checkpoints")
    if cfg.checkpoint_every > 0:
        os.makedirs(ckpt_dir, exist_ok=True)

    rows = {alg: {} for alg in cfg.algorithms}
    messages = {alg: 0 for alg in cfg.algorithms}
    aborted = []
    children = np.random.SeedSequence(cfg.master_seed).spawn(cfg.repeats)
    for r in repeats:
        pert_seq, noise_seq = children[r].spawn(2)
        pert_rng = np.random.default_rng(pert_seq)
        noise_rng = np.random.default_rng(noise_seq)
        perturbations = [sample_perturbation(layout, pert_rng) for _ in range(cfg.epochs)]
        traces = [env.draw_noise_trace(cfg.horizon, noise_rng) for _ in range(cfg.epochs)]
        for alg in cfg.algorithms:
            lcfg = LearnerConfig(step_size=cfg.eta, num_epochs=cfg.epochs,
                                 oracle=parse_algorithm(alg, cfg.delta))
            ev = WarehouseEvaluator(env, policy, cfg.horizon, cfg.discount)
            on_episode = None
            if cfg.checkpoint_every > 0:
                def on_episode(k, theta, rec, alg=alg, r=r):
                    if (k + 1) % cfg.checkpoint_every == 0 or k + 1 == cfg.epochs:
                        save_parameters(
                            os.path.join(ckpt_dir, f"{alg}.rep{r:03d}.ep{k + 1:05d}.npz"),
                            theta, k + 1)
            try:
                res = train(theta0, ev, lcfg, MessageBus(arts.learning),
                            perturbations=perturbations, noise_traces=traces,
                            on_episode=on_episode)
            except TrainingDiverged as exc:
                aborted.append((alg, r, str(exc)))
                continue
            write_run_csv(os.path.join(out, run_file_name(alg, r)),
                          res.records, cfg.graph.num_agents)
            rows[alg][r] = np.array([rec.global_value for rec in res.records])
            messages[alg] += res.bus.total_messages

    mean_value, std_value, executed = {}, {}, {}
    for alg in cfg.algorithms:
        if not rows[alg]:
            continue
        done = sorted(rows[alg])
        mean_value[alg], std_value[alg] = _stats([rows[alg][r] for r in done])
        executed[alg] = tuple(done)
    summary = RunSummary(cfg.algorithms, cfg.repeats, cfg.epochs, mean_value,
                         std_value, messages, executed, tuple(aborted))
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
    absent file."""
    manifest_path = os.path.join(run_dir, MANIFEST_NAME)
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ValueError(f"{run_dir} has no readable {MANIFEST_NAME}: {exc}") from exc
    xcfg = manifest["config"]["experiment"]
    lcfg = manifest["config"]["learner"]
    algorithms = tuple(xcfg["algorithms"])
    repeats_run = manifest.get("repeats_run", list(range(xcfg["repeats"])))
    skip = {(a, r) for a, r, _ in manifest.get("aborted", [])}

    missing = []
    tables = {alg: {} for alg in algorithms}
    for alg in algorithms:
        for r in repeats_run:
            if (alg, r) in skip:
                continue
            path = os.path.join(run_dir, run_file_name(alg, r))
            if not os.path.exists(path):
                missing.append(run_file_name(alg, r))
                continue
            tables[alg][r] = read_run_csv(path)
    if missing:
        raise ValueError(f"{run_dir} is incomplete; missing runs: {', '.join(missing)}")

    mean_value, std_value, executed, messages = {}, {}, {}, {}
    for alg in algorithms:
        if not tables[alg]:
            continue
        done = sorted(tables[alg])
        mean_value[alg], std_value[alg] = _stats(
            [tables[alg][r].global_values for r in done])
        executed[alg] = tuple(done)
        messages[alg] = int(sum(tables[alg][r].messages.sum() for r in done))
    return RunSummary(algorithms, int(xcfg["repeats"]), int(lcfg["epochs"]),
                      mean_value, std_value, messages, executed,
                      tuple(tuple(a) for a in manifest.get("aborted", [])))
