"""Experiment driver: seeded runs, CSV artifacts, and summaries.

One experiment is (config, master_seed) -> an output directory with

    <algorithm>.rep<RRR>.csv   per-episode rows for each run
    summary.csv / summary.json cross-repeat statistics
    manifest.json              config echo, seeds, versions, timing

Within a repeat every algorithm consumes the same pre-drawn
perturbation and environment-noise streams and starts from the same
zero parameter, so algorithm curves are directly comparable.  Streams
are derived by seed-sequence spawning, which makes every (repeat,
algorithm) run independent of which other runs execute: run CSVs are
byte-identical across full and partial re-runs of the same seed.
Wall-clock timing lives only in the manifest for exactly that reason.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import platform
import time
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .configio import ExperimentConfig
from .graphs import build_artifacts
from .learner import (
    MessageBus,
    RunTable,
    TrainingDiverged,
    WarehouseEvaluator,
    parse_algorithm,
    train,
)
from .oracles import ALGORITHMS, FLAVORS, sample_perturbation
from .policy import BlockLayout, NonFiniteScores, RbfPolicy
from .warehouse import RolloutError, WarehouseEnv

CSV_MAGIC = "# dirmarl run csv v1"
MANIFEST_NAME = "manifest.json"
TAIL_WINDOW = 100  # epochs that a summary's tail std averages over


def run_file_name(algorithm: str, repeat: int) -> str:
    return f"{algorithm}.rep{repeat:03d}.csv"


@functools.cache  # a batch writes and reads many runs of one agent count
def _run_csv_header(num_agents: int) -> str:
    return ",".join(["epoch"]
                    + [f"value_{i}" for i in range(1, num_agents + 1)]
                    + ["global_value"]
                    + [f"grad_norm_{i}" for i in range(1, num_agents + 1)]
                    + ["messages"])


def _write_whole(path: str, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) so that ``path`` only ever holds it
    whole: under a temporary name in the same directory, then moved over
    ``path``; a failed or interrupted write removes the temporary file,
    and one that fails for the file system is an error that names ``path``."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):  # a directory in the way, no permission, a full disk
            raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
        raise


def write_run_csv(path: str, table: RunTable) -> list[int] | None:
    """Write ``table`` to ``path`` and return the file's checksum,
    [CRC-32, byte length], when ``read_run_csv`` accepts the table in
    full: every cell finite and both counts non-negative.  Otherwise
    None: a file without a checksum is always parsed in full."""
    n = table.values.shape[1]
    # "%.17g" % x gives the bytes of f"{float(x):.17g}": 17 significant
    # digits, which read back to the same double
    row = "%d," + ",".join(["%.17g"] * (2 * n + 1)) + ",%d"
    lines = [CSV_MAGIC, _run_csv_header(n)]
    cols = (table.epochs, table.values, table.global_values, table.grad_norms, table.messages)
    lines += [row % (k, *values, total, *norms, messages)
              for k, values, total, norms, messages in zip(*(c.tolist() for c in cols))]
    data = ("\n".join(lines) + "\n").encode()
    _write_whole(path, data)
    readable = (all(np.isfinite(c).all() for c in (table.values, table.global_values,
                                                    table.grad_norms))
                and (table.epochs >= 0).all() and (table.messages >= 0).all())
    return [zlib.crc32(data), len(data)] if readable else None


def read_run_csv(path: str, checksum: list[int] | None = None) -> RunTable:
    """Read a run CSV back; a header other than the columns
    ``write_run_csv`` writes, or a row whose cell count differs from the
    header's, that holds a non-number or a non-finite number, or whose
    epoch or message count is not a whole number below 2**63, is an
    error that names ``path:line``.  A file that cannot be read, other
    than a missing one, is an error that names it.

    The file is read once.  With ``checksum``, the [CRC-32, byte length]
    that ``write_run_csv`` returned, and bytes that still match it, only
    the epoch, global_value and messages columns are parsed: the
    returned table's ``values`` and ``grad_norms`` are None.  Such bytes
    are the writer's own output of a table that passes every check
    above (ASCII, the header's cell count, finite cells, digit-only
    counts below 2**63), so the full parse would find nothing.  Any
    other file is decoded whole, split into lines at ``\\n``, ``\\r\\n``
    and ``\\r``, and parsed row by row with ``float()``, so the first
    failed row names ``path:line``; rows fail in file order, then the
    first non-finite cell, then the first count of 2**63 or more."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise
    except OSError as exc:  # a directory in the way, or no permission
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    if checksum is not None and len(data) == checksum[1] and zlib.crc32(data) == checksum[0]:
        table = _read_summary_columns(data)
        if table is not None:
            return table
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from exc
    # text mode's line ends (str.splitlines also splits at \x1c-\x1e, \x85, \u2028)
    lines = text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")
    if len(lines) < 2 or lines[0] != CSV_MAGIC:
        raise ValueError(f"{path} is not a dirmarl run csv (missing {CSV_MAGIC!r} "
                         "and a header)")
    header = lines[1].split(",")
    n = lines[1].count(",value_") + lines[1].startswith("value_")  # cells named value_*
    if lines[1] != _run_csv_header(n):
        raise ValueError(f"{path}:2: header is not the run csv columns for {n} agents "
                         "(epoch, value_i, global_value, grad_norm_i, messages)")
    body = [(lineno, ln) for lineno, ln in enumerate(lines[2:], start=3) if ln]
    rows = []
    for lineno, ln in body:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}:{lineno}: {len(cells)} cells, the header has {len(header)}")
        try:
            rows.append(list(map(float, cells)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if not (cells[0].isdigit() and cells[-1].isdigit()):  # epoch and messages
            col = -1 if cells[0].isdigit() else 0
            raise ValueError(f"{path}:{lineno}: {header[col]} must be a whole number, "
                             f"got {cells[col]!r}")
    data = np.array(rows, dtype=float).reshape(-1, len(header))
    if not np.isfinite(data).all():
        r, c = np.argwhere(~np.isfinite(data))[0]
        raise ValueError(f"{path}:{body[r][0]}: {header[c]} must be finite, "
                         f"got {float(data[r, c])!r}")
    counts = []  # epoch and messages exactly, from their digit text
    for lineno, ln in body:
        for name, cell in (("epoch", ln.partition(",")[0]), ("messages", ln.rpartition(",")[2])):
            counts.append(int(cell))
            if counts[-1] >= 2 ** 63:
                raise ValueError(f"{path}:{lineno}: {name} must be below 2**63, got {cell!r}")
    counts = np.array(counts, dtype=np.int64).reshape(-1, 2)
    return RunTable(
        epochs=counts[:, 0],
        values=data[:, 1:1 + n],
        global_values=data[:, 1 + n],
        grad_norms=data[:, 2 + n:2 + 2 * n],
        messages=counts[:, 1],
    )


def _read_summary_columns(data: bytes) -> RunTable | None:
    """The epoch, global_value and messages columns of ``write_run_csv``
    output, read from the cells' byte offsets, or None when its first
    two lines are not the magic line and a run csv header."""
    head = len(CSV_MAGIC) + 1
    end = data.find(b"\n", head)
    if end < 0:
        return None
    header = data[head:end].decode("latin-1")
    n = header.count(",value_") + header.startswith("value_")
    if data[:end] != f"{CSV_MAGIC}\n{_run_csv_header(n)}".encode():
        return None
    body = np.frombuffer(data, dtype=np.uint8)[end + 1:]
    row_ends = np.flatnonzero(body == ord("\n")) + (end + 1)
    commas = (np.flatnonzero(body == ord(",")) + (end + 1)).reshape(len(row_ends), 2 * n + 2)
    row_starts = [end + 1, *(row_ends[:-1] + 1).tolist()]
    first, total, after, last = (commas[:, c].tolist() for c in (0, n, n + 1, -1))
    return RunTable(
        epochs=np.array([int(data[a:b]) for a, b in zip(row_starts, first)], dtype=np.int64),
        values=None,
        global_values=np.array([float(data[a + 1:b]) for a, b in zip(total, after)]),
        grad_norms=None,
        messages=np.array([int(data[a + 1:b]) for a, b in zip(last, row_ends.tolist())],
                          dtype=np.int64),
    )


@dataclass(frozen=True)
class RunSummary:
    """Cross-repeat statistics, recomputable from the raw run CSVs."""

    algorithms: tuple[str, ...]
    num_epochs: int
    mean_value: dict        # algorithm -> (K,) cross-repeat mean global value
    std_value: dict         # algorithm -> (K,) cross-repeat sample std
    total_messages: dict    # algorithm -> messages summed over repeats
    executed: dict          # algorithm -> tuple of completed repeat indices
    aborted: tuple          # (algorithm, repeat, reason)

    def final_mean(self, algorithm: str) -> float:
        return float(self.mean_value[algorithm][-1])

    def tail_std(self, algorithm: str) -> float:
        """Cross-repeat std of the global value averaged over the last
        ``TAIL_WINDOW`` epochs (all of them in a shorter run)."""
        return float(self.std_value[algorithm][-TAIL_WINDOW:].mean())

    def variance_table(self) -> dict:
        """Distributed versus centralized tail std per oracle flavor,
        for the flavors where both scopes were run."""
        table = {}
        for flavor in FLAVORS:
            dist, cent = f"distributed_{flavor}", f"centralized_{flavor}"
            if dist in self.mean_value and cent in self.mean_value:
                table[flavor] = {"distributed": self.tail_std(dist),
                                 "centralized": self.tail_std(cent)}
        return table

    def report(self) -> dict:
        """What the run reports, per algorithm with a completed repeat and
        overall: ``summary.json`` holds it, ``run`` and ``summarize`` print it."""
        per_alg = {alg: {"final_mean": self.final_mean(alg),
                         "final_std": float(self.std_value[alg][-1]),
                         "tail_std": self.tail_std(alg),
                         "initial_mean": float(self.mean_value[alg][0]),
                         "total_messages": self.total_messages[alg],
                         "repeats": list(self.executed[alg])}
                   for alg in self.algorithms if alg in self.mean_value}
        return {"format": "dirmarl summary v1",
                "num_epochs": self.num_epochs,
                "algorithms": per_alg,
                "variance_table": self.variance_table(),
                "aborted": [list(a) for a in self.aborted]}


def _summary_inputs(table: RunTable) -> tuple[np.ndarray, int]:
    """A run's global values, apart from its table, and exact message total."""
    return table.global_values.copy(), sum(table.messages.tolist())


def _build_summary(algorithms, epochs: int, runs: dict, aborted) -> RunSummary:
    """Cross-repeat statistics of ``runs[alg][repeat] =
    _summary_inputs(table)``, one entry per completed run; an algorithm
    without one is left out of the per-algorithm maps."""
    mean_value, std_value, messages, executed = {}, {}, {}, {}
    for alg in algorithms:
        done = sorted(runs[alg])
        if not done:
            continue
        stack = np.stack([runs[alg][r][0] for r in done])
        mean_value[alg] = stack.mean(axis=0)
        std_value[alg] = (stack.std(axis=0, ddof=1) if len(done) > 1
                          else np.zeros_like(mean_value[alg]))
        messages[alg] = sum(runs[alg][r][1] for r in done)
        executed[alg] = tuple(done)
    return RunSummary(tuple(algorithms), epochs, mean_value, std_value, messages,
                      executed, tuple(tuple(a) for a in aborted))


def write_summary(out_dir: str, summary: RunSummary) -> None:
    lines = ["algorithm,epoch,mean_value,std_value"]
    for alg in summary.algorithms:
        if alg not in summary.mean_value:
            continue
        mean, std = summary.mean_value[alg].tolist(), summary.std_value[alg].tolist()
        lines += [f"{alg},{k},{mean[k]:.17g},{std[k]:.17g}" for k in range(summary.num_epochs)]
    _write_whole(os.path.join(out_dir, "summary.csv"), "\n".join(lines) + "\n")
    _write_whole(os.path.join(out_dir, "summary.json"),
                 json.dumps(summary.report(), indent=2, sort_keys=True) + "\n")


def _repeat_streams(cfg: ExperimentConfig, env: WarehouseEnv, layout: BlockLayout,
                    repeat: int) -> tuple[np.ndarray, np.ndarray]:
    """Repeat ``repeat``'s shared streams, the (epochs, d) joint probes and
    the (epochs, horizon + 1, N) noise traces, drawn epoch by epoch from
    the repeat's two spawned children of the master seed sequence."""
    pert_rng, noise_rng = (np.random.default_rng(np.random.SeedSequence(
        cfg.master_seed, spawn_key=(repeat, stream))) for stream in (0, 1))
    try:
        probes = np.empty((cfg.epochs, layout.total_dim))
        traces = np.empty((cfg.epochs, cfg.horizon + 1, cfg.graph.num_agents))
    except MemoryError as exc:
        raise ValueError(f"one repeat's streams do not fit in memory ({exc}): horizon "
                         f"{cfg.horizon} x epochs {cfg.epochs} x {cfg.graph.num_agents} "
                         "agents") from exc
    for k in range(cfg.epochs):  # one generator per stream: interleaving moves no draw
        probes[k] = sample_perturbation(layout, pert_rng)
        traces[k] = env.draw_noise_trace(cfg.horizon, noise_rng)
    return probes, traces


def run_experiment(cfg: ExperimentConfig, *, repeat_indices=None) -> RunSummary:
    """Execute the full (algorithm x repeat) matrix and write all
    artifacts into ``cfg.output_dir``.

    ``repeat_indices`` restricts execution to a subset of repeats
    without changing what any individual run computes; an index given
    twice runs once.  A run that diverges, whose rollout aborts or whose
    allocation scores turn non-finite is recorded in ``aborted`` with
    its cause, ``TYPE: message``, and the remaining runs continue; any
    other error propagates.
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
    policy = RbfPolicy(cfg.graph, **asdict(cfg.policy))
    bus = MessageBus(build_artifacts(cfg.graph).learning)
    ev = WarehouseEvaluator(env, policy, cfg.discount)
    layout = policy.layout
    theta0 = np.zeros(layout.total_dim)

    learners = {alg: parse_algorithm(alg, cfg.delta, cfg.eta) for alg in cfg.algorithms}
    runs = {alg: {} for alg in cfg.algorithms}
    aborted, checksums = [], {}
    for r in repeats:
        probes, traces = _repeat_streams(cfg, env, layout, r)
        for alg in cfg.algorithms:
            try:
                table, _ = train(theta0, ev, learners[alg], bus, probes, traces)
            except (TrainingDiverged, RolloutError, NonFiniteScores) as exc:
                aborted.append((alg, r, f"{type(exc).__name__}: {exc}"))
                continue
            name = run_file_name(alg, r)
            checksum = write_run_csv(os.path.join(out, name), table)
            if checksum is not None:
                checksums[name] = checksum
            runs[alg][r] = _summary_inputs(table)

    summary = _build_summary(cfg.algorithms, cfg.epochs, runs, aborted)
    write_summary(out, summary)
    manifest = {
        "format": "dirmarl manifest v1",
        "config": cfg.echo(),
        "repeats_run": list(repeats),
        "aborted": [list(a) for a in aborted],
        "run_csv_checksums": checksums,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__,
                     "dirmarl": __version__},
        "wall_clock_seconds": time.perf_counter() - started,
    }
    _write_whole(os.path.join(out, MANIFEST_NAME),
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return summary


def summarize(run_dir: str) -> RunSummary:
    """Recompute the cross-repeat statistics from the raw CSVs of a
    finished run directory.  Missing runs are an error that lists every
    absent file; a run CSV whose rows are not the manifest's epochs
    0..K-1 is an error that names it.  A run CSV whose bytes match the
    manifest's checksum for it is parsed only in the columns a summary
    reads (see ``read_run_csv``); any other is parsed in full."""
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
        lambda v: (isinstance(v, list) and v and all(a in ALGORITHMS for a in v)
                   and len(set(v)) == len(v)),
        f"a non-empty list of names from {ALGORITHMS}, each once"))
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

    def checksum(v):
        return (isinstance(v, list) and len(v) == 2 and all(type(x) is int for x in v)
                and 0 <= v[0] < 2 ** 32 and v[1] >= 0)

    checksums = field("run_csv_checksums",
                      lambda v: isinstance(v, dict) and all(map(checksum, v.values())),
                      "a map of run csv names to [crc32, bytes] pairs", {})

    missing = []
    runs = {alg: {} for alg in algorithms}
    for alg in algorithms:
        for r in repeats_run:
            if (alg, r) in skip:
                continue
            name = run_file_name(alg, r)
            path = os.path.join(run_dir, name)
            try:
                table = read_run_csv(path, checksums.get(name))
            except FileNotFoundError:
                missing.append(name)
                continue
            if not np.array_equal(table.epochs, np.arange(epochs)):
                raise ValueError(f"{path}: rows must be the manifest's epochs "
                                 f"0..{epochs - 1} in order, got {len(table.epochs)} rows")
            runs[alg][r] = _summary_inputs(table)
    if missing:
        raise ValueError(f"{run_dir} is incomplete; missing runs: {', '.join(missing)}")
    return _build_summary(algorithms, epochs, runs, aborted)
