import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dirmarl.graphs import build_graph
from dirmarl.policy import BlockLayout, NonFiniteScores, PolicySettings, RbfPolicy
from helpers import (
    SPECIAL_VALUES,
    agent_centers,
    agents,
    make_centers,
    nine_agent_graph,
    observation_sets,
    out_neighbors,
    per_agent_allocation,
    random_weakly_connected_digraph,
    rbf_features,
    rbf_scores,
    reference_act_matrix,
    reference_observation_matrix,
    softmax_allocation,
    sprinkle,
)


def test_make_centers_midpoint():
    c = make_centers([(0.0, 2.0), (0.0, 2.0)], 1)
    assert c.shape == (1, 2)
    assert np.array_equal(c, [[1.0, 1.0]])


def test_make_centers_diagonal_fractions():
    c = make_centers([(0.0, 1.0)], 4)
    assert np.allclose(c[:, 0], [0.2, 0.4, 0.6, 0.8])
    c = make_centers([(-1.0, 2.0), (0.0, 0.5)], 2)
    assert np.allclose(c, [[0.0, 1.0 / 6], [1.0, 1.0 / 3]])


def test_make_centers_rejects_degenerate_range():
    with pytest.raises(ValueError, match="degenerate"):
        make_centers([(0.0, 1.0), (1.0, 1.0)], 3)
    with pytest.raises(ValueError, match="num_centers"):
        make_centers([(0.0, 1.0)], 0)
    # RbfPolicy rejects the same inputs with the message of its
    # settings, which names the setting
    g = build_graph(3, [(2, 1), (3, 1), (1, 2)])  # agent 1 observes {1, 2, 3}
    for num_centers, stock, demand, name in ((0, (-1.0, 2.0), (0.0, 0.5), "num_centers"),
                                             (3, (1.0, 1.0), (0.0, 0.5), "stock_range"),
                                             (3, (-1.0, 2.0), (0.5, 0.0), "demand_range"),
                                             (3, (2.0, -1.0), (0.5, 0.5), "stock_range")):
        kw = dict(num_centers=num_centers, stock_range=stock, demand_range=demand)
        with pytest.raises(ValueError):
            make_centers([stock] * 3 + [demand], num_centers)
        with pytest.raises(ValueError) as want:
            PolicySettings(**kw)
        with pytest.raises(ValueError) as got:
            RbfPolicy(g, **kw)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{name} must")


def test_block_dimensions_follow_out_degree():
    pol = RbfPolicy(nine_agent_graph(), num_centers=4)
    # Agents 2, 4, 6 have two out-neighbors, everyone else one.
    assert pol.layout.dims == (8, 12, 8, 12, 8, 12, 8, 8, 8)
    assert pol.layout.total_dim == 84


def test_params_block_views_alias_flat():
    layout = BlockLayout((2, 3))
    flat = np.arange(5.0)
    assert np.array_equal(layout.block(flat, 1), [0.0, 1.0])
    assert np.array_equal(layout.block(flat, 2), [2.0, 3.0, 4.0])
    assert layout.block(flat, 2).base is flat
    pol = RbfPolicy(build_graph(2, [(1, 2)]), num_centers=2)
    with pytest.raises(ValueError, match="policy expects"):
        pol.bind(np.zeros(pol.layout.total_dim - 1))


def test_block_norms_match_per_block():
    layout = BlockLayout((2, 3, 1))
    flat = np.array([3.0, 4.0, 1.0, 2.0, 2.0, -7.0])
    norms = layout.block_norms(flat)
    assert np.allclose(norms, [5.0, 3.0, 7.0])


def test_block_below_one_is_rejected():
    # np.add.reduceat would hand an empty block its successor's entry:
    # block_norms([3, 4, 0]) read [3, 4, 4] for dims (1, 0, 2).
    for dims, bad in (((1, 0, 2), "block 2 has dimension 0"),
                      ((-1, 3), "block 1 has dimension -1")):
        with pytest.raises(ValueError, match=bad):
            BlockLayout(dims)


def agent_rows(pol: RbfPolicy, alloc: np.ndarray) -> list[np.ndarray]:
    """The compact (K,) allocation cut into one row per agent."""
    assert alloc.shape == pol.slot_agent.shape
    return np.split(alloc, pol.slot_start[1:])


def test_zero_params_give_uniform_allocation():
    g = nine_agent_graph()
    pol = RbfPolicy(g, num_centers=4)
    alloc = pol.bind(np.zeros(pol.layout.total_dim)).act_matrix(np.zeros(pol.obs_dims.sum()))
    rows = agent_rows(pol, alloc)
    assert np.allclose(rows[1], [1.0 / 3] * 3)  # two out-neighbors + self
    assert np.allclose(rows[0], [0.5, 0.5])


def test_rbf_scores_match_manual_sum():
    g = build_graph(3, [(1, 2), (1, 3), (2, 1)])
    pol = RbfPolicy(g, num_centers=3)
    rng = np.random.default_rng(0)
    i = 1
    block = rng.normal(size=pol.layout.dims[i - 1])
    obs = rng.normal(size=pol.obs_dims[i - 1])
    z = rbf_scores(block, obs, pol, i)
    mat = block.reshape(-1, pol.num_centers)
    for s in range(pol.num_slots[i - 1]):
        expect = sum(mat[s, l] * np.sum((obs - agent_centers(pol, i)[l]) ** 2)
                     for l in range(pol.num_centers))
        assert np.isclose(z[s], expect, rtol=1e-12)


def test_rbf_scores_rejects_wrong_block_size():
    pol = RbfPolicy(build_graph(2, [(1, 2)]), num_centers=2)
    with pytest.raises(ValueError, match="agent 1 block"):
        rbf_scores(np.zeros(3), np.zeros(pol.obs_dims[0]), pol, 1)


finite_scores = st.lists(
    st.floats(min_value=-500, max_value=500, allow_nan=False), min_size=1, max_size=8)


@given(finite_scores)
@settings(max_examples=200)
def test_softmax_simplex(z):
    a = softmax_allocation(np.array(z))
    assert np.all(a >= 0)
    assert abs(a.sum() - 1.0) <= 1e-12


@given(finite_scores, st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
@settings(max_examples=200)
def test_softmax_shift_invariance(z, c):
    a = softmax_allocation(np.array(z))
    b = softmax_allocation(np.array(z) + c)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_softmax_monotone_in_score():
    a = softmax_allocation(np.array([0.0, 1.0, 3.0]))
    assert a[0] > a[1] > a[2]


def test_softmax_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        softmax_allocation(np.array([0.0, np.nan]))
    with pytest.raises(ValueError, match="non-finite"):
        softmax_allocation(np.array([np.inf, 0.0]))


def test_softmax_extreme_scores_stay_finite():
    a = softmax_allocation(np.array([-1e6, 0.0, 1e6]))
    assert np.all(np.isfinite(a))
    assert np.isclose(a.sum(), 1.0)
    assert a[0] > 0.999


def test_act_matrix_matches_per_agent_path():
    g = nine_agent_graph()
    for kernel in ("squared", "gaussian"):
        pol = RbfPolicy(g, num_centers=4, kernel=kernel)
        rng = np.random.default_rng(3)
        bound = pol.bind(rng.normal(scale=0.4, size=pol.layout.total_dim))
        obs = [rng.uniform(-1, 2, size=d) for d in pol.obs_dims]
        rows = agent_rows(pol, bound.act_matrix(np.concatenate(obs)))
        for i in agents(g):
            row = rows[i - 1]
            assert np.allclose(row, per_agent_allocation(pol, bound.flat, i, obs[i - 1]),
                               rtol=1e-12, atol=1e-14)
            assert np.isclose(row.sum(), 1.0)


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(("squared", "gaussian")),
       st.floats(min_value=-3.0, max_value=6.0))
@settings(max_examples=150, deadline=None)
def test_act_matrix_rows_lie_on_the_simplex(seed, kernel, log_scale):
    # The contract validate_allocations guards, pinned on the production
    # path: every agent's row is a probability vector.
    rng = np.random.default_rng(seed)
    g = random_weakly_connected_digraph(rng, 1, 10)
    pol = RbfPolicy(g, num_centers=int(rng.integers(1, 5)), kernel=kernel)
    bound = pol.bind(10.0 ** log_scale * rng.normal(size=pol.layout.total_dim))
    obs = rng.uniform(-1.5, 2.5, size=pol.obs_dims.sum())
    for row in agent_rows(pol, bound.act_matrix(obs)):
        assert np.all(row >= 0.0)
        assert abs(row.sum() - 1.0) <= 1e-12


def graph_with_hub(rng: np.random.Generator):
    """Random digraph on 9-14 agents plus out-edges making one agent's
    out-degree at least 8: a row of 9 or more slots, which numpy's own
    sums would add with 8 interleaved accumulators, not as a left fold."""
    g = random_weakly_connected_digraph(rng, 9, 14)
    hub = int(rng.integers(1, g.num_agents + 1))
    others = [j for j in agents(g) if j != hub]
    picked = rng.choice(others, size=int(rng.integers(8, len(others) + 1)), replace=False)
    return build_graph(g.num_agents, set(g.edges) | {(hub, int(j)) for j in picked})


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(("squared", "gaussian")),
       st.floats(min_value=-3.0, max_value=308.0), st.floats(min_value=0.0, max_value=0.3),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_act_matrix_matches_reference_bitwise(seed, kernel, log_scale, special, hub):
    # Same bits as the per-agent left-fold features and softmax, and a raise
    # with the same message (agent list included) on exactly the inputs
    # it rejects, including non-finite, signed-zero and overflowing
    # observations and parameters, on small graphs and on graphs with a
    # hub of 9 or more slots, from contiguous and strided parameters.
    rng = np.random.default_rng(seed)
    g = graph_with_hub(rng) if hub else random_weakly_connected_digraph(rng, 1, 10)
    pol = RbfPolicy(g, num_centers=int(rng.integers(1, 5)), kernel=kernel)
    assert not hub or pol.num_slots.max() >= 9
    with np.errstate(over="ignore"):
        flat = 10.0 ** log_scale * rng.normal(size=pol.layout.total_dim)
    flat = sprinkle(rng, flat, SPECIAL_VALUES, special / 4)
    # half the time a strided view: einsum's strided loop rounds differently
    bound = pol.bind(flat if rng.random() < 0.5 else np.repeat(flat, 2)[::2])
    obs = sprinkle(rng, rng.uniform(-1.5, 2.5, size=pol.obs_dims.sum()), SPECIAL_VALUES, special)

    def outcome(act):
        try:
            return act(obs).tobytes()
        except NonFiniteScores as exc:
            return str(exc)

    with np.errstate(all="ignore"):
        assert outcome(bound.act_matrix) == outcome(lambda o: reference_act_matrix(bound, o))


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(("squared", "gaussian")), st.booleans())
# graphs on which features summed over a width padded to the widest
# observation moved an untouched agent's bits: one per mode
@example(20, "squared", True)
@example(35, "squared", False)
@settings(max_examples=60, deadline=None)
def test_allocation_does_not_depend_on_the_widest_agent(seed, kernel, hub):
    # A base graph whose agents have 2-7 slots either gains a new agent
    # with 8 or more out-edges to any agents, or gains in-edges between
    # its own agents, into the widest observation half the time.  Every
    # agent whose observation set and slot set did not change must get
    # the same allocation bits: its features and its softmax denominator
    # are left folds of its own entries, whatever the widest agent.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 19))
    edges = set()
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        edges |= {(i, int(j)) for j in rng.choice(others, size=int(rng.integers(1, 7)),
                                                  replace=False)}
    base = build_graph(n, edges)
    if hub:
        targets = rng.choice(np.arange(1, n + 1), size=int(rng.integers(8, n)), replace=False)
        wide = build_graph(n + 1, edges | {(n + 1, int(j)) for j in targets})
    else:
        sizes = [len(s) for s in observation_sets(base)]
        b = int(np.argmax(sizes)) + 1 if rng.random() < 0.5 else int(rng.integers(1, n + 1))
        unseen = [a for a in agents(base) if a not in observation_sets(base)[b - 1]]
        assume(unseen)
        sources = rng.choice(unseen, size=int(rng.integers(1, min(len(unseen), 4) + 1)),
                             replace=False)
        wide = build_graph(n, edges | {(int(a), b) for a in sources})
    nc = int(rng.integers(1, 5))
    pols = [RbfPolicy(g, num_centers=nc, kernel=kernel) for g in (base, wide)]
    if hub:
        assert pols[1].num_slots.max() >= 9 > 7 >= pols[0].num_slots.max()

    # one parameter block per agent, cut to its slot count in each graph
    blocks = [rng.normal(scale=0.5, size=d) for d in pols[1].layout.dims]
    stocks, demands = rng.uniform(-1.5, 2.5, size=(2, wide.num_agents))
    allocs = []
    for pol in pols:
        k = pol.graph.num_agents
        flat = np.concatenate([b[:d] for b, d in zip(blocks, pol.layout.dims)])
        obs = reference_observation_matrix(pol.graph, stocks[:k], demands[:k])
        allocs.append(agent_rows(pol, pol.bind(flat).act_matrix(obs)))
    untouched = [i for i in range(n)
                 if observation_sets(base)[i] == observation_sets(wide)[i]
                 and out_neighbors(base)[i] == out_neighbors(wide)[i]]
    assert untouched
    for i in untouched:
        assert allocs[0][i].tobytes() == allocs[1][i].tobytes(), f"agent {i + 1}"


def test_gaussian_kernel_changes_features():
    g = build_graph(2, [(1, 2)])
    sq = RbfPolicy(g, num_centers=2, kernel="squared")
    ga = RbfPolicy(g, num_centers=2, kernel="gaussian")
    obs = np.array([0.3, 0.1])
    f_sq = rbf_features(sq, 1, obs)
    f_ga = rbf_features(ga, 1, obs)
    assert np.allclose(f_ga, np.exp(-f_sq))
    with pytest.raises(ValueError, match="kernel"):
        RbfPolicy(g, kernel="cubic")


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=100)
def test_layout_flat_block_round_trip(dims, seed):
    layout = BlockLayout(tuple(dims))
    flat = np.random.default_rng(seed).normal(size=layout.total_dim)
    rebuilt = np.concatenate([layout.block(flat, i) for i in range(1, layout.num_agents + 1)])
    assert np.array_equal(rebuilt, flat)
    assert np.allclose(layout.block_norms(flat),
                       [np.linalg.norm(layout.block(flat, i))
                        for i in range(1, layout.num_agents + 1)])
