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
  array pass over the cluster graph, linear in N + |E_L| up to sorts,
* on demand only, per-agent reachability: who agent i can influence
  (``reach``), the same set closed with i itself (``reach_closed``),
  and who can influence i (``ancestors``).

Agent indices are 1-based in every public structure but the 0-based
arrays (``edge_array``, the learning graph's CSR).  Cluster indices
are 0-based positions into ``ClusterDecomposition.clusters``.  All
derived orderings are deterministic: clusters are sorted by smallest
member, neighbor lists and member lists ascending.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from typing import Iterable, Mapping

import numpy as np


@dataclass(frozen=True)
class CoordinationGraph:
    """Validated directed graph on agents 1..num_agents, no self-loops."""

    num_agents: int
    edges: frozenset[tuple[int, int]]

    @cached_property
    def _out(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_agents + 1)]
        for i, j in self.edges:
            out[i].append(j)
        return tuple(tuple(sorted(n)) for n in out)

    @cached_property
    def _in(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.num_agents + 1)]
        for i, j in self.edges:
            inc[j].append(i)
        return tuple(tuple(sorted(n)) for n in inc)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Read-only (2, E) array of the edges' 0-based sources (row 0)
        and targets (row 1), sorted by source, then target."""
        edges = (np.array(sorted(self.edges), dtype=np.intp).reshape(-1, 2) - 1).T.copy()
        edges.flags.writeable = False
        return edges

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        """Agents j with (i, j) an edge, ascending."""
        return self._out[i]

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        """Agents j with (j, i) an edge, ascending."""
        return self._in[i]

    def observation_set(self, i: int) -> tuple[int, ...]:
        """In-neighborhood closed with i itself, ascending: the agents
        whose stock appears in i's observation."""
        return tuple(sorted(set(self._in[i]) | {i}))

    @property
    def agents(self) -> range:
        return range(1, self.num_agents + 1)


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
    """Partition of agents into strongly connected components.

    ``clusters`` is ordered by smallest member; each cluster is an
    ascending tuple.  ``cluster_of`` maps agent -> cluster index.
    ``sink_first`` lists every cluster index after every cluster it
    has a graph edge into: the order in which Tarjan's pass closed them.
    """

    clusters: tuple[tuple[int, ...], ...]
    cluster_of: Mapping[int, int]
    sink_first: tuple[int, ...]

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def on_cycle(self, i: int) -> bool:
        """True when agent i lies on a directed cycle (cluster size >= 2)."""
        return len(self.clusters[self.cluster_of[i]]) >= 2


def strongly_connected_components(g: CoordinationGraph) -> ClusterDecomposition:
    """Tarjan's algorithm, iterative so 10^4-agent graphs do not hit the
    recursion limit.  A component closes only after every component it
    reaches, so the emission order is a reverse topological order."""
    n = g.num_agents
    adj = g._out
    indices = [0] * (n + 1)  # 0 = unvisited
    lowlink = [0] * (n + 1)
    on_stack = bytearray(n + 1)
    stack: list[int] = []
    counter = 1
    comps: list[list[int]] = []

    for root in g.agents:
        if indices[root]:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            frame = work[-1]
            v, pi = frame
            if pi == 0:
                indices[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            nbrs = adj[v]
            advanced = False
            while pi < len(nbrs):
                w = nbrs[pi]
                pi += 1
                if not indices[w]:
                    frame[1] = pi
                    work.append([w, 0])
                    advanced = True
                    break
                if on_stack[w] and indices[w] < lowlink[v]:
                    lowlink[v] = indices[w]
            if advanced:
                continue
            work.pop()
            if lowlink[v] == indices[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp.append(w)
                    if w == v:
                        break
                comp.sort()
                comps.append(comp)
            if work and lowlink[v] < lowlink[work[-1][0]]:
                lowlink[work[-1][0]] = lowlink[v]

    clusters = tuple(sorted(tuple(c) for c in comps))
    cluster_of = {a: k for k, comp in enumerate(clusters) for a in comp}
    sink_first = tuple(cluster_of[c[0]] for c in comps)
    return ClusterDecomposition(clusters, cluster_of, sink_first)


class ReachabilitySets:
    """Per-agent reachability, computed once at cluster level.

    Cluster reachability is stored as bitmasks over cluster indices,
    folded over the graph's out-edges in ``sink_first`` order (down)
    and over its in-edges in the reverse order (up);
    agent-level sets are expanded on demand and cached per cluster, so
    same-cluster agents share one frozenset.  The masks are quadratic
    in the cluster count, so only ``GraphArtifacts.reach`` builds them,
    when first asked.
    """

    def __init__(self, graph: CoordinationGraph, clusters: ClusterDecomposition):
        self.clusters = clusters
        down = self._fold(clusters.sink_first, graph._out)
        up = self._fold(reversed(clusters.sink_first), graph._in)
        self._down_set = cache(lambda c: frozenset(self._expand(down[c])))
        self._up_set = cache(lambda c: frozenset(self._expand(up[c])))

    def _fold(self, order, neighbors) -> list[int]:
        """Cluster bitmasks closed along ``neighbors``; ``order`` puts
        every cluster after the clusters its neighbours belong to."""
        members, cof = self.clusters.clusters, self.clusters.cluster_of
        masks = [0] * len(members)
        for c in order:
            m = 1 << c
            for a in members[c]:
                for b in neighbors[a]:
                    m |= masks[cof[b]]
            masks[c] = m
        return masks

    def _expand(self, mask: int) -> list[int]:
        members = self.clusters.clusters
        agents: list[int] = []
        while mask:
            lsb = mask & -mask
            agents.extend(members[lsb.bit_length() - 1])
            mask ^= lsb
        return agents

    def reach(self, i: int) -> frozenset[int]:
        """Agents j reachable from i by a directed path (contains i
        itself exactly when i is on a cycle)."""
        s = self.reach_closed(i)
        return s if self.clusters.on_cycle(i) else s - {i}

    def reach_closed(self, i: int) -> frozenset[int]:
        """reach(i) united with {i}; identical for all members of a
        cluster and shared as one frozenset."""
        return self._down_set(self.clusters.cluster_of[i])

    def reach_closed_sorted(self, i: int) -> tuple[int, ...]:
        """Ascending tuple of reach_closed(i): the canonical summation
        order for assembled local values."""
        return tuple(sorted(self.reach_closed(i)))

    def ancestors(self, i: int) -> frozenset[int]:
        """Agents j that can reach i (contains i itself exactly when i
        is on a cycle).  j in reach(i) iff i in ancestors(j)."""
        s = self.ancestors_closed(i)
        return s if self.clusters.on_cycle(i) else s - {i}

    def ancestors_closed(self, i: int) -> frozenset[int]:
        return self._up_set(self.clusters.cluster_of[i])


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

    def senders(self, i: int) -> np.ndarray:
        """Agent i's reward senders, 1-based and ascending."""
        return self.indices[self.indptr[i - 1]:self.indptr[i]] + 1

    @property
    def edges(self) -> np.ndarray:
        """(|E_L|, 2) array of the 1-based (sender, target) pairs, sorted."""
        targets = np.repeat(np.arange(1, self.num_agents + 1), np.diff(self.indptr))
        order = np.argsort(self.indices, kind="stable")
        return np.column_stack((self.indices[order] + 1, targets[order]))


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
    ordered by smallest member: the clusters of the graph with every
    edge also reversed.  A single component means the graph is weakly
    connected."""
    both = CoordinationGraph(g.num_agents, g.edges | {(j, i) for i, j in g.edges})
    return strongly_connected_components(both).clusters


@dataclass(frozen=True)
class GraphArtifacts:
    """Everything derived from one coordination graph; ``reach`` on first use."""

    graph: CoordinationGraph
    clusters: ClusterDecomposition
    learning: LearningGraph

    @cached_property
    def reach(self) -> ReachabilitySets:
        return ReachabilitySets(self.graph, self.clusters)


def build_artifacts(g: CoordinationGraph) -> GraphArtifacts:
    d = strongly_connected_components(g)
    return GraphArtifacts(g, d, derive_learning_graph(g, d))
