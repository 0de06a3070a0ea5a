"""Shared test utilities: independent brute-force reference
implementations, policy stubs and random graph generators.  Kept free
of any imports from the package's graph internals beyond the public
constructors."""

from __future__ import annotations

import numpy as np

from dirmarl.graphs import CoordinationGraph, build_graph


def transitive_closure(g: CoordinationGraph) -> np.ndarray:
    """Floyd-Warshall boolean closure.  closure[i, j] is True when a
    directed path of length >= 1 runs from i to j (1-based; row/col 0
    unused).  closure[i, i] is True exactly when i lies on a cycle."""
    n = g.num_agents
    r = np.zeros((n + 1, n + 1), dtype=bool)
    for i, j in g.edges:
        r[i, j] = True
    for k in range(1, n + 1):
        r |= r[:, k][:, None] & r[k, :][None, :]
    return r


def brute_force_learning_edges(g: CoordinationGraph) -> set[tuple[int, int]]:
    """Expected reward-routing edges: (j, i) for every ordered pair of
    distinct agents with i reaching j."""
    r = transitive_closure(g)
    return {(j, i) for i in g.agents for j in g.agents if i != j and r[i, j]}


def random_weakly_connected_digraph(rng: np.random.Generator, n_min: int = 2,
                                    n_max: int = 12) -> CoordinationGraph:
    n = int(rng.integers(n_min, n_max + 1))
    p = float(rng.uniform(0.08, 0.35))
    edges = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if i != j and rng.random() < p]
    present = set(edges)
    # Stitch weak components together with random directed edges.
    while True:
        comps = _weak_components(n, present)
        if len(comps) == 1:
            break
        a = comps[0][int(rng.integers(len(comps[0])))]
        b = comps[1][int(rng.integers(len(comps[1])))]
        e = (a, b) if rng.random() < 0.5 else (b, a)
        present.add(e)
        edges.append(e)
    return build_graph(n, edges)


def _weak_components(n: int, edges: set[tuple[int, int]]) -> list[list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen: set[int] = set()
    comps = []
    for root in range(1, n + 1):
        if root in seen:
            continue
        stack, comp = [root], []
        seen.add(root)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def example2_graph() -> CoordinationGraph:
    """100-agent chain-pattern graph: odd agents point at both array
    neighbors, plus the closure edge (1, 100)."""
    edges = []
    for i in range(1, 101, 2):
        if i - 1 >= 1:
            edges.append((i, i - 1))
        if i + 1 <= 100:
            edges.append((i, i + 1))
    edges.append((1, 100))
    return build_graph(100, edges)


def example2_expected_learning_edges() -> set[tuple[int, int]]:
    expected = set()
    for i in range(2, 101, 2):
        if i - 1 >= 1:
            expected.add((i, i - 1))
        if i + 1 <= 100:
            expected.add((i, i + 1))
    expected.add((100, 1))
    return expected


# Representative 9-agent layout used by the bundled example experiment:
# four cycles {1,2}, {3,4}, {5,6}, {7,8,9}, each supplier pair feeding
# the sink cycle, so local reward sums stay small relative to the
# global sum and the distributed/centralized contrast is visible.
NINE_AGENT_EDGES = [
    (1, 2), (2, 1),
    (3, 4), (4, 3),
    (5, 6), (6, 5),
    (7, 8), (8, 9), (9, 7),
    (2, 7), (4, 7), (6, 7),
]


def nine_agent_graph() -> CoordinationGraph:
    return build_graph(9, NINE_AGENT_EDGES)


# -- per-agent policy reference -------------------------------------------
# One agent at a time, straight from the formulas in dirmarl.policy; the
# padded whole-population ``act_matrix`` is checked against these.


def rbf_features(policy, i: int, obs: np.ndarray) -> np.ndarray:
    """Radial features of agent i's (unpadded) observation, one per center."""
    d = np.asarray(obs, dtype=float) - policy.centers[i - 1]
    sqd = np.einsum("ld,ld->l", d, d)
    return sqd if policy.kernel == "squared" else np.exp(-sqd)


def rbf_scores(theta_block: np.ndarray, obs: np.ndarray, policy, i: int) -> np.ndarray:
    """Per-slot scores z_ij for agent i: slot-major block times radial
    features of the observation."""
    block = np.asarray(theta_block, dtype=float)
    if block.size != policy.layout.dims[i - 1]:
        raise ValueError(
            f"agent {i} block has {block.size} coordinates, expected {policy.layout.dims[i - 1]}")
    return block.reshape(-1, policy.num_centers) @ rbf_features(policy, i, obs)


def softmax_allocation(scores: np.ndarray) -> np.ndarray:
    """exp(-z) normalized over slots; shifted by min(z) for stability
    so the result is invariant to a common offset."""
    z = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"non-finite allocation scores: {z}")
    w = np.exp(-(z - z.min()))
    return w / w.sum()


def per_agent_allocation(policy, flat: np.ndarray, i: int, obs: np.ndarray) -> np.ndarray:
    """Agent i's allocation over [self] + ascending out-neighbors."""
    return softmax_allocation(rbf_scores(policy.layout.block(flat, i), obs, policy, i))


class FixedAllocation:
    """Policy stub whose ``act_matrix`` always returns one padded
    (N, slots_max) allocation, whatever the observation."""

    def __init__(self, alloc):
        self.alloc = np.asarray(alloc, dtype=float)

    def act_matrix(self, obs_pad: np.ndarray) -> np.ndarray:
        return self.alloc

    @classmethod
    def uniform(cls, env) -> "FixedAllocation":
        """Stock split evenly over self and every out-edge."""
        alloc = np.zeros((env.num_agents, env.slots_max))
        for i, k in enumerate(env.num_slots):
            alloc[i, :k] = 1.0 / k
        return cls(alloc)
