"""Shared test utilities: independent brute-force reference
implementations, policy stubs and random graph generators.  Kept free
of any imports from the package's graph internals beyond the public
constructors."""

from __future__ import annotations

import functools
import operator

import numpy as np

from dirmarl.experiments import CSV_MAGIC
from dirmarl.graphs import CoordinationGraph, build_graph
from dirmarl.learner import RunTable, WarehouseEvaluator
from dirmarl.oracles import sample_perturbation
from dirmarl.policy import NonFiniteScores
from dirmarl.validation import _MomentAccumulator
from dirmarl.warehouse import RolloutError


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


def agents(g: CoordinationGraph) -> range:
    """The agents of ``g``, 1-based."""
    return range(1, g.num_agents + 1)


def closed_reach(g: CoordinationGraph) -> list[tuple[int, ...]]:
    """Entry i - 1: the agents agent i reaches, itself included,
    ascending, from ``transitive_closure``."""
    closure = transitive_closure(g)
    return [tuple(j for j in agents(g) if j == i or closure[i, j]) for i in agents(g)]


def senders(learning, i: int) -> np.ndarray:
    """Agent i's reward senders in a learning graph, 1-based and
    ascending: row i of its CSR arrays."""
    return learning.indices[learning.indptr[i - 1]:learning.indptr[i]] + 1


def out_neighbors(g: CoordinationGraph) -> list[list[int]]:
    """Entry i - 1: agent i's out-neighbours, ascending, from ``g.edges``."""
    out: list[list[int]] = [[] for _ in agents(g)]
    for i, j in sorted(g.edges):
        out[i - 1].append(j)
    return out


def shipping_agents(g: CoordinationGraph) -> list[int]:
    """The agents with at least one out-edge, 1-based and ascending: the
    only ones the policy scores, a sink's allocation being the constant 1."""
    return [i for i, out in enumerate(out_neighbors(g), 1) if out]


def observation_sets(g: CoordinationGraph) -> list[list[int]]:
    """Entry i - 1: agent i's in-neighbours and i itself, ascending,
    from ``g.edges``: the agents whose stock agent i observes."""
    obs = [[i] for i in agents(g)]
    for i, j in g.edges:
        obs[j - 1].append(i)
    return [sorted(s) for s in obs]


def ascending_reach_sums(g: CoordinationGraph, values: np.ndarray) -> np.ndarray:
    """Reference local values for a (k, N) payload: column i - 1 is the
    running sum, in ascending agent order, of the payload columns of
    agent i and of every agent i reaches."""
    out = np.empty_like(values)
    for i, reach in enumerate(closed_reach(g), 1):
        out[:, i - 1] = ascending_column_sum(values, reach)
    return out


def ascending_column_sum(values: np.ndarray, columns) -> np.ndarray:
    """The running sum, in the order given, of the 1-based ``columns``
    of a (k, N) array."""
    acc = values[:, columns[0] - 1]
    for j in columns[1:]:
        acc = acc + values[:, j - 1]
    return acc


def collected_terms(obj, i: int) -> tuple[int, ...]:
    """The terms agent i's local sum collects, ascending: every term
    whose dependencies hold i (the transpose of ``obj.deps``)."""
    return tuple(j for j, deps in enumerate(obj.deps, 1) if i in deps)


def assert_local_sums_are_reach_sums(obj, g: CoordinationGraph,
                                     rng: np.random.Generator) -> None:
    """Every agent's ``obj.totals`` on a random batch is bit-identical to
    the ascending sum of the terms of the agents it reaches."""
    batch = rng.uniform(-2.0, 2.0, size=(5, obj.total_dim))
    want = ascending_reach_sums(g, obj.term_values(batch))
    for i in agents(g):
        assert obj.totals(batch, i).tobytes() == want[:, i - 1].tobytes(), i


def brute_force_learning_edges(g: CoordinationGraph) -> set[tuple[int, int]]:
    """Expected reward-routing edges: (j, i) for every ordered pair of
    distinct agents with i reaching j."""
    r = transitive_closure(g)
    return {(j, i) for i in agents(g) for j in agents(g) if i != j and r[i, j]}


def learning_edge_set(learning) -> set[tuple[int, int]]:
    """A learning graph's routing edges as a set of 1-based (sender,
    target) pairs."""
    return set(map(tuple, learning.edges.tolist()))


def bus_links(bus) -> set[tuple[int, int]]:
    """Every 1-based (source, target) pair a message bus's plan adds,
    self-pairs left out: the routing edges it actually uses."""
    src = np.concatenate((bus._first, bus._src)) + 1
    dst = np.concatenate((np.arange(bus.num_agents), bus._dst)) + 1
    return {(j, i) for j, i in zip(src.tolist(), dst.tolist()) if j != i}


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


def tree_with_back_edges(rng, n):
    """Random recursive out-tree on agents 1..n (the root reaches
    everyone, leaves only themselves) plus a few child -> parent back
    edges, so per-agent source counts range from 1 to n."""
    parent = {c: int(rng.integers(1, c)) for c in range(2, n + 1)}
    edges = [(p, c) for c, p in parent.items()]
    for c in rng.choice(np.arange(2, n + 1), size=min(n - 1, 3), replace=False):
        edges.append((int(c), parent[int(c)]))
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
# whole-population ``act_matrix`` is checked against these.


def agent_centers(policy, i: int) -> np.ndarray:
    """Agent i's (num_centers, obs dim) centers, from ``make_centers``."""
    k = len(observation_sets(policy.graph)[i - 1])
    return make_centers([policy.stock_range] * k + [policy.demand_range], policy.num_centers)


def rbf_features(policy, i: int, obs: np.ndarray) -> np.ndarray:
    """Radial features of agent i's own observation entries, one per center."""
    d = np.asarray(obs, dtype=float) - agent_centers(policy, i)
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
    """Policy stub whose ``act_matrix`` always returns one (E,) vector of
    out-edge fractions, in edge order, whatever the state."""

    def __init__(self, frac):
        self.frac = np.array(frac, dtype=float)

    def act_matrix(self, state: np.ndarray) -> np.ndarray:
        return self.frac

    @classmethod
    def uniform(cls, env) -> "FixedAllocation":
        """Stock split evenly over self and every out-edge."""
        return cls([1.0 / (len(out) + 1) for out in out_neighbors(env.graph) for _ in out])


# Values that stress bitwise agreement: non-finite, signed zero, near
# overflow, and tiny magnitudes whose squares underflow.
SPECIAL_VALUES = (np.nan, np.inf, -np.inf, -0.0, 1e300, -1e300, -1e-200, 5e-324, -5e-324)


def sprinkle(rng: np.random.Generator, x: np.ndarray, values, frac: float) -> np.ndarray:
    """Copy of ``x`` with about ``frac`` of its entries replaced by
    random picks from ``values``."""
    x = np.array(x, dtype=float)
    hit = rng.random(x.shape) < frac
    x[hit] = rng.choice(np.asarray(values, dtype=float), size=int(hit.sum()))
    return x


# -- per-step rollout references ------------------------------------------
# The straightforward forms of act_matrix and the warehouse step functions,
# with index arrays rebuilt from public attributes.  The production
# versions must compute the same bits and raise on the same inputs with
# the same messages.


def theta_padded(policy, flat: np.ndarray) -> np.ndarray:
    """The flat parameter as a zero-padded (N, widest slot count,
    num_centers) tensor, filled block by block."""
    nc = policy.num_centers
    pad = np.zeros((policy.graph.num_agents, int(policy.num_slots.max()), nc))
    for i, k in enumerate(policy.num_slots):
        pad[i, :k] = policy.layout.block(flat, i + 1).reshape(k, nc)
    return pad


def left_fold(values) -> float:
    """0.0 + v0 + v1 + ... in order.  Not the builtin ``sum``: from
    Python 3.12 its float sum is compensated."""
    return functools.reduce(operator.add, (float(v) for v in values), 0.0)


def reference_act_matrix(bound, state: np.ndarray) -> np.ndarray:
    """The policy shipping agent by shipping agent, on that agent's own
    observation (``reference_observation_matrix``) and its own slots
    only: each squared distance to a center is the left fold of d * d
    over the agent's entries, and each softmax denominator the left fold
    of its exp-weights in slot order.  Sinks are skipped.  Returns the
    (E,) out-edge fractions, each agent's allocation without its retained
    fraction, agent after agent; a non-finite score is reported by agent
    number."""
    p = bound.policy
    n = p.graph.num_agents
    ships = shipping_agents(p.graph)
    obs = reference_observation_matrix(p.graph, state[:n], state[n:])
    obs_sets = observation_sets(p.graph)
    sqd, start = [], 0
    for i in ships:
        s = obs_sets[i - 1]
        own = obs[start:start + len(s) + 1]
        start += len(s) + 1
        centers = make_centers([p.stock_range] * len(s) + [p.demand_range], p.num_centers)
        sqd.append([left_fold(d * d) for d in own - centers])
    sqd = np.array(sqd).reshape(len(ships), p.num_centers)
    feats = sqd if p.kernel == "squared" else np.exp(-sqd)
    theta = theta_padded(p, bound.flat)[np.array(ships, dtype=np.intp) - 1]
    z = np.einsum("isl,il->is", theta, feats)
    slots = [int(p.num_slots[i - 1]) for i in ships]
    bad = [i for i, zi, k in zip(ships, z, slots) if not np.all(np.isfinite(zi[:k]))]
    if bad:
        raise NonFiniteScores(f"non-finite allocation scores for agents {bad}")
    rows = []
    for zi, k in zip(z, slots):
        w = np.exp(-(zi[:k] - zi[:k].min()))
        rows.append((w / left_fold(w))[1:])
    return np.concatenate([np.empty(0), *rows])


def reference_observation_matrix(g: CoordinationGraph, stocks: np.ndarray,
                                 demands: np.ndarray) -> np.ndarray:
    """The compact observation shipping agent by shipping agent: the
    stocks of agent i's observation set, ascending, then its own demand."""
    obs_sets = observation_sets(g)
    rows = [np.append(stocks[np.array(obs_sets[i - 1]) - 1], demands[i - 1])
            for i in shipping_agents(g)]
    return np.concatenate([np.empty(0), *rows])


def out_fractions(env, frac: np.ndarray) -> list[list[float]]:
    """The (E,) out-edge fractions cut into one list per agent, by the
    graph's out-neighbours (edges in (source, target) order)."""
    rows, e = [], 0
    for out in out_neighbors(env.graph):
        k = len(out)
        rows.append([float(f) for f in frac[e:e + k]])
        e += k
    return rows


def reference_validate_allocations(env, frac: np.ndarray, where: str = "") -> None:
    rows = out_fractions(env, frac)
    for i, row in enumerate(rows, 1):
        if not all(-1e-12 <= f <= 1.0 + 1e-12 for f in row):  # NaN included
            raise RolloutError(f"agent {i} allocation fraction outside [0, 1]{where}")
    for i, row in enumerate(rows, 1):
        total = left_fold(row)
        if total > 1.0 + 1e-12:
            raise RolloutError(f"agent {i} ships more than its whole stock "
                               f"(fraction sum {total}){where}")


def reference_apply_transition(env, stocks: np.ndarray, frac: np.ndarray,
                               demands: np.ndarray) -> np.ndarray:
    # edges ordered by (source, target): the production summation order
    edges = [(i - 1, j - 1) for i, j in sorted(env.graph.edges)]
    e_src = np.array([e[0] for e in edges], dtype=np.intp)
    e_dst = np.array([e[1] for e in edges], dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        shipped = frac * stocks[e_src]
        outflow = np.bincount(e_src, weights=shipped, minlength=env.num_agents)
        inflow = np.bincount(e_dst, weights=shipped, minlength=env.num_agents)
        return stocks - outflow + inflow - demands


def reference_step_rewards(stocks: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.where(stocks >= 0.0, 0.0, -stocks * stocks)


# -- claim-battery references ---------------------------------------------
# The row-major (samples, coordinates) forms of the battery's Monte-Carlo
# core.  The production versions work on coordinate-major rows; they must
# draw the same random numbers in the same order and agree to rounding.


def reference_term_values(obj, thetas: np.ndarray) -> np.ndarray:
    t = np.atleast_2d(np.asarray(thetas, dtype=float))
    out = np.empty((t.shape[0], obj.num_agents))
    for j in range(obj.num_agents):
        x = t[:, obj.gather[j]]
        if obj.family == "quadratic":
            out[:, j] = obj.offsets[j] - ((x - obj.targets[j]) ** 2 @ obj.weights[j])
        elif obj.family == "cosine":
            out[:, j] = obj.amplitudes[j] * np.cos(x @ obj.weights[j] + obj.offsets[j])
        else:
            out[:, j] = obj.offsets[j] - (np.abs(x - obj.targets[j]) @ obj.weights[j])
    return out


def reference_moment_add(acc, g: np.ndarray, block_sq: np.ndarray | None) -> None:
    """Add an (m, dim) sample batch and its (m, num_blocks) squared block
    norms to a ``validation._MomentAccumulator``."""
    acc.count += g.shape[0]
    acc.sum += g.sum(axis=0)
    acc.sumsq += (g * g).sum(axis=0)
    if acc.blocks is not None:
        acc.blocks += block_sq.sum(axis=0)
        acc.blocks_sq += (block_sq * block_sq).sum(axis=0)


def reference_mc_smoothed_gradient(f, theta: np.ndarray, delta: float, num_samples: int,
                                   rng: np.random.Generator, *, batch_size: int = 16384):
    theta = np.asarray(theta, dtype=float)
    acc = _MomentAccumulator(theta.size, None)
    done = 0
    while done < num_samples:
        m = min(batch_size, num_samples - done)
        u = rng.standard_normal((m, theta.size))
        vals = np.asarray(f(theta[None, :] + delta * u), dtype=float)
        reference_moment_add(acc, (vals / delta)[:, None] * u, None)
        done += m
    return acc.finish()


def reference_oracle_moments(obj, theta: np.ndarray, delta: float, num_samples: int,
                             rng: np.random.Generator, *, flavor: str = "one_point",
                             scope: str = "distributed", batch_size: int = 8192):
    theta = np.asarray(theta, dtype=float)
    n, d = obj.num_agents, obj.total_dim
    acc = _MomentAccumulator(d, n)
    done = 0
    while done < num_samples:
        m = min(batch_size, num_samples - done)
        u = rng.standard_normal((m, d))
        noise = rng.standard_normal((m, n)) * obj.noise_std
        tv = reference_term_values(obj, theta[None, :] + delta * u) + noise
        if flavor == "two_point":
            tv_ref = reference_term_values(obj, theta[None, :]) + noise
        elif flavor == "residual":
            u_prev = rng.standard_normal((m, d))
            noise_prev = rng.standard_normal((m, n)) * obj.noise_std
            tv_ref = reference_term_values(obj, theta[None, :] + delta * u_prev) + noise_prev
        else:
            tv_ref = None

        g = np.empty((m, d))
        block_sq = np.empty((m, n))
        for i in range(1, n + 1):
            if scope == "centralized":
                v = tv.sum(axis=1)
                v_ref = tv_ref.sum(axis=1) if tv_ref is not None else 0.0
            else:
                cols = np.asarray(collected_terms(obj, i), dtype=np.intp) - 1
                v = tv[:, cols].sum(axis=1)
                v_ref = tv_ref[:, cols].sum(axis=1) if tv_ref is not None else 0.0
            sl = obj.layout.block_slice(i)
            g[:, sl] = ((v - v_ref) / delta)[:, None] * u[:, sl]
            block_sq[:, i - 1] = (g[:, sl] ** 2).sum(axis=1)
        reference_moment_add(acc, g, block_sq)
        done += m
    return acc.finish()


# -- synthetic-objective fakes and closed forms ---------------------------


class SyntheticEvaluator:
    """One-episode value feedback from a synthetic objective, with the
    interface the warehouse evaluator gives the training loop.  Noise is
    per-agent additive Gaussian; replaying the same noise vector
    reproduces the evaluation exactly."""

    def __init__(self, objective):
        self.objective = objective
        self.layout = objective.layout
        self.num_agents = objective.num_agents

    def draw_noise(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.num_agents) * self.objective.noise_std

    def evaluate(self, theta: np.ndarray, noise: np.ndarray) -> np.ndarray:
        return self.objective.term_values(theta)[0] + noise


def draw_streams(evaluator, epochs: int, rng: np.random.Generator,
                 horizon: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """``epochs`` joint probes, an (epochs, d) array, and episode noises
    for ``train``, from one generator: per epoch the probe first, then
    the noise.  A warehouse evaluator's noise is a (horizon + 1, N)
    trace; a fake evaluator's is its own ``draw_noise(rng)``."""
    probes = np.empty((epochs, evaluator.layout.total_dim))
    noises = [None] * epochs
    for k in range(epochs):
        probes[k] = sample_perturbation(evaluator.layout, rng)
        noises[k] = (evaluator.env.draw_noise_trace(horizon, rng)
                     if isinstance(evaluator, WarehouseEvaluator)
                     else evaluator.draw_noise(rng))
    return probes, np.array(noises)


def smoothed_local_gradient(obj, i: int, theta: np.ndarray, delta: float) -> np.ndarray:
    """Closed-form smoothed gradient of agent i's local sum."""
    g = np.zeros(obj.total_dim)
    for j in collected_terms(obj, i):
        g += obj.term_gradient(j, theta, delta)
    return g


def global_value_bound(obj) -> float:
    """sup |J| of the global sum, from the per-term bounds."""
    return float(obj.term_bounds[0].sum())


def global_noise_std(obj) -> float:
    """Standard deviation of the global sum's additive noise."""
    return float(np.sqrt((obj.noise_std ** 2).sum()))


# -- set-up references ----------------------------------------------------
# The policy and environment tables, the exchange plan and the run-CSV
# writer as they were first written: one agent, one plan group and one
# CSV cell at a time.  The array-built production versions must produce
# the same bytes.


def make_centers(obs_ranges, num_centers: int) -> np.ndarray:
    """num_centers points on the diagonal of the observation box, at
    fractions k/(num_centers+1) for k = 1..num_centers.

    obs_ranges is a sequence of (lo, hi) per observation dimension;
    degenerate ranges are rejected.
    """
    if num_centers < 1:
        raise ValueError(f"num_centers must be >= 1, got {num_centers}")
    lo = np.array([r[0] for r in obs_ranges], dtype=float)
    hi = np.array([r[1] for r in obs_ranges], dtype=float)
    if not np.all(hi > lo):
        bad = int(np.argmax(~(hi > lo)))
        raise ValueError(f"observation range {(lo[bad], hi[bad])} for dimension {bad} is degenerate")
    fracs = np.arange(1, num_centers + 1, dtype=float) / (num_centers + 1)
    return lo[None, :] + fracs[:, None] * (hi - lo)[None, :]


def reference_policy_tables(policy) -> dict[str, np.ndarray]:
    """``_obs_index``, ``_centers``, ``_feat_key``, ``_edge_slot``,
    ``_feat_index``, ``slot_agent``, ``slot_start`` and ``_rows`` of an
    RbfPolicy, filled shipping agent by shipping agent (sinks skipped);
    agents are named by their rank among the shipping agents.
    ``_obs_index`` indexes the (2N,) state, stocks then demands;
    ``_edge_slot`` is each edge's index into the compact allocation,
    whose shipping agents each hold a retained slot and then one slot
    per out-neighbour; ``_rows`` holds the rows of the flat vector read
    as (N + |E|, num_centers) that the shipping agents' slots take."""
    g = policy.graph
    n, nc = g.num_agents, policy.num_centers
    ships = shipping_agents(g)
    m = len(ships)
    out, obs_sets = out_neighbors(g), observation_sets(g)
    obs_index = []
    for i in ships:
        obs_index.extend(j - 1 for j in obs_sets[i - 1])
        obs_index.append(n + i - 1)
    centers = np.concatenate(
        [np.empty((nc, 0))] + [make_centers([policy.stock_range] * len(obs_sets[i - 1])
                                            + [policy.demand_range], nc) for i in ships], axis=1)
    entry_rank = [r for r, i in enumerate(ships) for _ in range(len(obs_sets[i - 1]) + 1)]
    feat_key = [l * m + r for l in range(nc) for r in entry_rank]
    agent, start, edge_slot = [], [], []
    for r, i in enumerate(ships):
        start.append(len(agent))
        edge_slot.extend(range(len(agent) + 1, len(agent) + 1 + len(out[i - 1])))
        agent.extend([r] * (len(out[i - 1]) + 1))
    rows, first = [], 0
    for o in out:
        if o:
            rows.extend(range(first, first + len(o) + 1))
        first += len(o) + 1
    feat_index = [[l * m + r for l in range(nc)] for r in agent]
    return {"_obs_index": np.array(obs_index, dtype=np.intp),
            "_centers": centers, "_feat_key": np.array(feat_key, dtype=np.intp),
            "_edge_slot": np.array(edge_slot, dtype=np.intp),
            "_feat_index": np.array(feat_index, dtype=np.intp).reshape(len(agent), nc),
            "slot_agent": np.array(agent, dtype=np.intp),
            "slot_start": np.array(start, dtype=np.intp),
            "_rows": np.array(rows, dtype=np.intp)}


def reference_env_tables(env) -> dict[str, np.ndarray]:
    """``_e_src`` and ``_e_dst`` of a WarehouseEnv, filled agent by agent
    in (source, target) order."""
    e_src, e_dst = [], []
    for i, out in enumerate(out_neighbors(env.graph)):
        e_src.extend([i] * len(out))
        e_dst.extend(j - 1 for j in out)
    return {"_e_src": np.array(e_src, dtype=np.intp),
            "_e_dst": np.array(e_dst, dtype=np.intp)}


def grouped_gather(learning, values: np.ndarray) -> np.ndarray:
    """Local values by the grouped exchange plan: agents sorted by
    source count, cut into groups whose longest source list is at most
    twice the shortest, each group one gather padded with -0.0 and
    summed by ``np.add.accumulate`` in ascending source order."""
    n = learning.num_agents
    sources = [sorted(senders(learning, i).tolist() + [i]) for i in range(1, n + 1)]
    order = sorted(range(n), key=lambda a: -len(sources[a]))
    groups, start = [], 0
    while start < n:
        longest = len(sources[order[start]])
        stop = start + 1
        while stop < n and 2 * len(sources[order[stop]]) >= longest:
            stop += 1
        idx = np.full((stop - start, longest), n, dtype=np.intp)  # entry n holds -0.0
        for row, a in enumerate(order[start:stop]):
            idx[row, :len(sources[a])] = [j - 1 for j in sources[a]]
        groups.append(idx)
        start = stop
    values = np.asarray(values, dtype=float)
    padded = np.concatenate((values, np.full((1,) + values.shape[1:], -0.0)))
    sums = [np.add.accumulate(padded[idx], axis=1)[:, -1] for idx in groups]
    hat = np.empty_like(values)
    hat[np.array(order, dtype=np.intp)] = np.concatenate(sums)
    return hat


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _reference_header(num_agents: int) -> str:
    return ",".join(["epoch"]
                    + [f"value_{i}" for i in range(1, num_agents + 1)]
                    + ["global_value"]
                    + [f"grad_norm_{i}" for i in range(1, num_agents + 1)]
                    + ["messages"])


def run_table(values, global_values, grad_norms, messages, epochs=None) -> RunTable:
    """A run table from its columns, the (K, N) ones given as 2-D; the
    epochs default to 0..K-1."""
    global_values = np.array(global_values, dtype=float)
    epochs = range(global_values.size) if epochs is None else epochs
    return RunTable(epochs=np.array(epochs, dtype=np.int64),
                    values=np.array(values, dtype=float), global_values=global_values,
                    grad_norms=np.array(grad_norms, dtype=float),
                    messages=np.array(messages, dtype=np.int64))


def reference_write_run_csv(path: str, table: RunTable) -> None:
    """``experiments.write_run_csv`` formatting one cell at a time."""
    k, n = table.values.shape
    lines = [CSV_MAGIC, _reference_header(n)]
    for r in range(k):
        row = ([str(int(table.epochs[r]))]
               + [_fmt(v) for v in table.values[r]]
               + [_fmt(table.global_values[r])]
               + [_fmt(g) for g in table.grad_norms[r]]
               + [str(int(table.messages[r]))])
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_read_run_csv(path: str) -> RunTable:
    """``experiments.read_run_csv`` without a checksum, written apart
    from it in text mode: the oracle for its doubles and error text."""
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
    if lines[1] != _reference_header(n):
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
        if not (cells[0].isdigit() and cells[-1].isdigit()):  # epoch and messages
            col = -1 if cells[0].isdigit() else 0
            raise ValueError(f"{path}:{lineno}: {header[col]} must be a whole number, "
                             f"got {cells[col]!r}")
    data = np.array(rows, dtype=float).reshape(-1, len(header))
    if not np.isfinite(data).all():
        r, c = np.argwhere(~np.isfinite(data))[0]
        lineno = [k for k, ln in enumerate(lines[2:], start=3) if ln][r]
        raise ValueError(f"{path}:{lineno}: {header[c]} must be finite, "
                         f"got {float(data[r, c])!r}")
    return RunTable(
        epochs=data[:, 0].astype(int),
        values=data[:, 1:1 + n],
        global_values=data[:, 1 + n],
        grad_norms=data[:, 2 + n:2 + 2 * n],
        messages=data[:, 2 + 2 * n].astype(int),
    )
