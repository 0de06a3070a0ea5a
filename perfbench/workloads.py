"""Workload definitions: what each benchmark run feeds the program.

Every workload is single process and closed loop: the next operation
starts only after the previous one returned.  Experiment workloads keep
the full (algorithm x repeat) lane matrix of their config and shorten
only the epoch count, so one operation (a ``run_experiment`` call) is
about a second of work and a run collects a median over many of them.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TREE_AGENTS = 1000
TREE_BACK_EDGES = 60
# |E_L| band for generated trees.  Uniform recursive trees with 60
# back edges give |E_L| anywhere from ~7k to ~11k, and exchange time is
# linear in it, so an unconstrained draw would turn seed choice into a
# +-25% swing of the workload's size.
TREE_LEARNING_EDGES = (8600, 8800)

TREE1K_CONFIG = """\
# Generated tree1k workload: {agents} agents on a random recursive
# out-tree plus {back} child->parent back edges.
[graph]
file = {graph_file}

[policy]
num_centers = 4

[learner]
delta = 0.35
eta = 0.0005
epochs = {epochs}
horizon = 8

[experiment]
algorithms = distributed_one_point, centralized_one_point
repeats = 1
master_seed = {seed}
output_dir = runs
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str | None      # bundled config relative to the repo root; None: generated
    epochs: int             # epochs per run_experiment call
    reference_seed: int     # fixed input of the stored-reference check
    battery: bool = False   # main operation is run_validation, not run_experiment


WORKLOADS = {
    "example1": Workload(
        "example1",
        "N=9, 40 lanes incl. two-point: per-step numpy dispatch in warehouse and policy "
        "dominates; exchange and CSV are nearly idle",
        "configs/example1.cfg", 10, 8),
    "example2": Workload(
        "example2",
        "N=100 zigzag, 80 one-point lanes, wide CSVs: rollout, exchange, CSV write and "
        "the summarize read path all weigh",
        "configs/example2.cfg", 4, 1),
    "tree1k": Workload(
        "tree1k",
        "seeded 1000-agent tree with back edges, 2 lanes: exchange-bound large graph "
        "where lane batching has nothing to batch",
        None, 8, 0),
    "validate": Workload(
        "validate",
        "full claim-check battery: batched Monte-Carlo oracle moments, no warehouse "
        "and no exchange",
        "configs/example1.cfg", 6, 8, battery=True),
}


def random_tree_edges(seed: int) -> list[tuple[int, int]]:
    """Edges of the seeded tree1k graph: a uniform random recursive
    out-tree on 1..N (agent k > 1 hangs below a uniform earlier agent)
    plus child->parent back edges on distinct children.  Candidates are
    drawn from one stream until |E_L| falls in TREE_LEARNING_EDGES."""
    rng = np.random.default_rng(seed)
    n = TREE_AGENTS
    while True:
        parent = [0, 0] + [int(rng.integers(1, k)) for k in range(2, n + 1)]
        edges = [(parent[k], k) for k in range(2, n + 1)]
        for c in sorted(int(c) for c in rng.choice(np.arange(2, n + 1), TREE_BACK_EDGES,
                                                   replace=False)):
            edges.append((c, parent[c]))
        lo, hi = TREE_LEARNING_EDGES
        if lo <= learning_edge_count(n, edges) <= hi:
            return edges


def learning_edge_count(n: int, edges) -> int:
    """|E_L| computed independently of the program: the number of
    ordered pairs (i, j), i != j, with j reachable from i."""
    out = [[] for _ in range(n + 1)]
    for a, b in edges:
        out[a].append(b)
    total = 0
    for root in range(1, n + 1):
        seen = {root}
        q = deque([root])
        while q:
            v = q.popleft()
            for w in out[v]:
                if w not in seen:
                    seen.add(w)
                    q.append(w)
        total += len(seen) - 1
    return total


def cluster_count(n: int, edges) -> int:
    """Strongly connected components of the graph, counted by mutual
    reachability (fine at tree1k's size)."""
    out = [[] for _ in range(n + 1)]
    for a, b in edges:
        out[a].append(b)
    reach = []
    for root in range(n + 1):
        seen = {root}
        q = deque([root])
        while q:
            for w in out[q.popleft()]:
                if w not in seen:
                    seen.add(w)
                    q.append(w)
        reach.append(seen)
    label = {}
    for i in range(1, n + 1):
        if i not in label:
            for j in reach[i]:
                if i in reach[j]:
                    label[j] = i
    return len(set(label.values()))


def write_tree1k(work_dir: str, seed: int, epochs: int) -> str:
    """Write the seeded tree1k graph and config into ``work_dir``;
    returns the config path.  Same seed, same bytes."""
    edges = random_tree_edges(seed)
    graph_file = f"tree1k.seed{seed}.graph"
    lines = [f"# tree1k seed {seed}", f"agents {TREE_AGENTS}"]
    lines += [f"{a} {b}" for a, b in edges]
    with open(os.path.join(work_dir, graph_file), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    path = os.path.join(work_dir, f"tree1k.seed{seed}.cfg")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TREE1K_CONFIG.format(agents=TREE_AGENTS, back=TREE_BACK_EDGES,
                                      graph_file=graph_file, epochs=epochs, seed=seed))
    return path


def config_path(workload: Workload, work_dir: str, seed: int) -> str:
    """Config file of one operation's inputs.  Bundled configs are used
    as they are; tree1k writes a graph generated from ``seed``."""
    if workload.name == "tree1k":
        return write_tree1k(work_dir, seed, workload.epochs)
    return os.path.join(ROOT, workload.config)
