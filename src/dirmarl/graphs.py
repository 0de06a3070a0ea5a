"""Directed coordination-graph machinery.

A coordination graph is an unweighted directed graph on agents 1..N.
An edge (i, j) means agent i's state and action feed into agent j's
transition and observation, so i's parameters influence j's rewards.
From the graph we derive:

* the clustering of agents into strongly connected components (agents
  on a common directed cycle share a cluster),
* the learning graph: agent j must forward its realized reward to
  agent i exactly when i can reach j, so that i can assemble the value
  made up of every reward it influences; sorted CSR arrays from one
  array pass over the cluster graph, linear in N + |E_L| up to sorts.

The sorted edge array (``CoordinationGraph.edge_array``) and the
learning graph's CSR arrays are the only graph representations: both
component passes walk the edge array, and every reach fact is a
learning-graph row (agent i reaches the senders in its row; the agents
that reach i are the rows that contain it).

``build_artifacts`` is the one memo of both derivations: it runs the
component and closure passes once per distinct graph in a process and
returns the same read-only ``GraphArtifacts`` for every equal graph,
so the experiment driver, the CLI and the claim battery share them.

Agent indices are 1-based in every public structure but the 0-based
arrays (``edge_array``, the learning graph's CSR).  Cluster indices
are 0-based positions into ``ClusterDecomposition.clusters``.  All
derived orderings are deterministic: clusters are sorted by smallest
member, senders and member lists ascending.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class CoordinationGraph:
    """Validated directed graph on agents 1..num_agents, no self-loops."""

    num_agents: int
    edges: frozenset[tuple[int, int]]

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Read-only (2, E) array of the edges' 0-based sources (row 0)
        and targets (row 1), sorted by source, then target."""
        pairs = np.fromiter(chain.from_iterable(self.edges), np.intp).reshape(-1, 2) - 1
        edges = pairs[np.lexsort(pairs.T[::-1])].T.copy()
        edges.flags.writeable = False
        return edges


def build_graph(num_agents: int, edges: Iterable[tuple[int, int]]) -> CoordinationGraph:
    """Validate and normalize an edge list into a CoordinationGraph.

    Rejects out-of-range endpoints, self-loops, and duplicate edges,
    naming the offending edge.
    """
    if num_agents < 1:
        raise ValueError(f"num_agents must be >= 1, got {num_agents}")
    seen: set[tuple[int, int]] = set()
    for e in edges:
        i, j = e
        if not (1 <= i <= num_agents and 1 <= j <= num_agents):
            raise ValueError(f"edge ({i}, {j}) has an endpoint outside 1..{num_agents}")
        if i == j:
            raise ValueError(f"edge ({i}, {j}) is a self-loop")
        if (i, j) in seen:
            raise ValueError(f"edge ({i}, {j}) appears more than once")
        seen.add((i, j))
    return CoordinationGraph(num_agents, frozenset(seen))


@dataclass(frozen=True)
class ClusterDecomposition:
    """Partition of agents into strongly connected components, ordered
    by smallest member; each cluster is an ascending tuple."""

    clusters: tuple[tuple[int, ...], ...]

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)


def _tarjan(n: int, indptr: np.ndarray, targets: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Strongly connected components of the 0-based CSR graph whose
    node v has out-neighbours ``targets[indptr[v]:indptr[v + 1]]``, as
    ascending tuples of 1-based agents ordered by smallest member.
    Tarjan's algorithm, iterative so 10^4-agent graphs do not hit the
    recursion limit."""
    indptr, targets = indptr.tolist(), targets.tolist()
    index = [0] * n  # 0 = unvisited
    lowlink = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    counter = 1
    comps: list[tuple[int, ...]] = []

    for root in range(n):
        if index[root]:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        work = [[root, indptr[root]]]  # (node, next edge position)
        while work:
            frame = work[-1]
            v, p = frame
            end = indptr[v + 1]
            while p < end:
                w = targets[p]
                p += 1
                if not index[w]:
                    frame[1] = p
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append([w, indptr[w]])
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        comp.append(w + 1)
                        if w == v:
                            break
                    comps.append(tuple(sorted(comp)))
                if work and lowlink[v] < lowlink[work[-1][0]]:
                    lowlink[work[-1][0]] = lowlink[v]
    return tuple(sorted(comps))


def strongly_connected_components(g: CoordinationGraph) -> ClusterDecomposition:
    src, dst = g.edge_array
    indptr = np.searchsorted(src, np.arange(g.num_agents + 1))
    return ClusterDecomposition(_tarjan(g.num_agents, indptr, dst))


@dataclass(frozen=True, eq=False)
class LearningGraph:
    """Reward-routing graph E_L: edge (j, i) means j sends its realized
    reward to i, required exactly when i reaches j in the coordination
    graph.  Self-pairs are omitted: an agent is trivially its own
    reward source and never messages itself, even when it lies on a
    cycle.

    Read-only CSR arrays over 0-based agents: target i's senders are
    ``indices[indptr[i]:indptr[i + 1]]``, strictly ascending, never i.
    """

    num_agents: int
    indptr: np.ndarray
    indices: np.ndarray

    @cached_property
    def edges(self) -> np.ndarray:
        """Read-only (|E_L|, 2) array of the 1-based (sender, target)
        pairs, sorted; built on first read."""
        targets = np.repeat(np.arange(1, self.num_agents + 1), np.diff(self.indptr))
        order = np.argsort(self.indices, kind="stable")
        edges = np.column_stack((self.indices[order] + 1, targets[order]))
        edges.flags.writeable = False
        return edges


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions ``arange(s, s + l)`` of each (s, l), concatenated."""
    return np.arange(lengths.sum()) + (starts - lengths.cumsum() + lengths).repeat(lengths)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array, without np.unique's numpy.ma import."""
    return np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))


def derive_learning_graph(g: CoordinationGraph, d: ClusterDecomposition) -> LearningGraph:
    """E_L from one array pass over the cluster graph, level by level
    from the sinks up: a level is every cluster whose children are all
    closed, and their closed reach sets (members plus the children's
    sets) are gathered, sorted and deduplicated at once.  An agent's
    row is its cluster's set less the agent itself."""
    n, nc = g.num_agents, d.num_clusters
    size = np.fromiter(map(len, d.clusters), dtype=np.intp, count=nc)
    members = np.fromiter(chain.from_iterable(d.clusters), dtype=np.intp, count=n) - 1
    cof = np.repeat(np.arange(nc), size)[np.argsort(members)]
    src, dst = cof[g.edge_array]
    parent, child = np.divmod(_distinct(np.sort((src * nc + dst)[src != dst])), nc)
    down, up = np.bincount(parent, minlength=nc), np.bincount(child, minlength=nc)
    down_at, up_at = np.cumsum(down) - down, np.cumsum(up) - up
    parents = parent[np.argsort(child, kind="stable")]  # by child

    # cluster c's closed reach set is buf[start[c]:start[c] + count[c]],
    # ascending; its members come first in buf
    buf, used = np.concatenate((members, np.empty(n, dtype=np.intp))), n
    start, count = np.cumsum(size) - size, size.copy()
    pending = down.copy()  # children not yet closed
    level = np.flatnonzero(pending == 0)
    while level.size:
        kids = child[_ranges(down_at[level], down[level])]
        at = np.arange(level.size)
        owner = np.concatenate((at, at.repeat(down[level])))
        seg = np.concatenate((level, kids))
        key = owner.repeat(count[seg]) * n + buf[_ranges(start[seg], count[seg])]
        owner, agents = np.divmod(_distinct(np.sort(key)), n)  # reached twice: once
        if used + agents.size > buf.size:
            buf = np.resize(buf, 2 * (used + agents.size))
        buf[used:used + agents.size] = agents
        count[level] = sizes = np.bincount(owner, minlength=level.size)
        start[level] = used + sizes.cumsum() - sizes
        used += agents.size
        # the next level: the parents whose last child closed on this one
        ups = parents[_ranges(up_at[level], up[level])]
        np.subtract.at(pending, ups, 1)
        level = _distinct(np.sort(ups[pending[ups] == 0]))

    lengths = count[cof]
    row = buf[_ranges(start[cof], lengths)]
    indices = row[row != np.repeat(np.arange(n), lengths)]
    indptr = np.concatenate(([0], np.cumsum(lengths - 1)))
    indptr.flags.writeable = indices.flags.writeable = False
    return LearningGraph(n, indptr, indices)


def check_weak_connectivity(g: CoordinationGraph) -> tuple[tuple[int, ...], ...]:
    """Connected components of the undirected view, each ascending,
    ordered by smallest member: the strongly connected components of
    the edge array with every edge also reversed.  A single component
    means the graph is weakly connected."""
    src, dst = np.concatenate((g.edge_array, g.edge_array[::-1]), axis=1)
    order = np.argsort(src, kind="stable")
    indptr = np.searchsorted(src[order], np.arange(g.num_agents + 1))
    return _tarjan(g.num_agents, indptr, dst[order])


@dataclass(frozen=True)
class GraphArtifacts:
    """Everything derived from one coordination graph."""

    clusters: ClusterDecomposition
    learning: LearningGraph


@lru_cache(maxsize=8)
def build_artifacts(g: CoordinationGraph) -> GraphArtifacts:
    """The graph's clusters and learning graph, derived once per distinct
    graph: an equal graph gets the same read-only result."""
    d = strongly_connected_components(g)
    return GraphArtifacts(d, derive_learning_graph(g, d))
