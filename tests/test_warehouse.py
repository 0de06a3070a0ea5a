import math
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirmarl.configio import load_config
from dirmarl.graphs import build_graph
from dirmarl.policy import RbfPolicy
from dirmarl.warehouse import (
    RolloutError,
    WarehouseConfig,
    WarehouseEnv,
    simulate_rollout,
    step_rewards,
)
from helpers import (
    SPECIAL_VALUES,
    FixedAllocation,
    nine_agent_graph,
    observation_sets,
    out_neighbors,
    random_weakly_connected_digraph,
    reference_apply_transition,
    reference_observation_matrix,
    reference_step_rewards,
    reference_validate_allocations,
    sprinkle,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402


def make_env(graph=None, **kw) -> WarehouseEnv:
    return WarehouseEnv(WarehouseConfig(graph or nine_agent_graph(), **kw))


def test_demand_formula_matches_hand_value():
    env = make_env()
    got = env.demand_row(8, np.full(9, 0.05))[0]
    expect = 0.2 * (1.0 - math.sin(0.4)) + 0.05
    assert abs(got - expect) < 1e-15
    assert abs(expect - 0.17211633153826989) < 1e-15
    # At t=0 the sinusoid vanishes regardless of the shock.
    assert env.demand_row(0, np.full(9, 0.3))[0] == pytest.approx(0.2 + 0.3)


def test_isolated_agent_step():
    env = make_env(build_graph(1, []), initial_stock_jitter=0.0, demand_noise_std=0.0)
    ro = simulate_rollout(env, FixedAllocation([]), 
                          noise_trace=env.draw_noise_trace(1, np.random.default_rng(0)))
    assert np.array_equal(ro.stocks[0], [1.0])
    assert ro.rewards[0, 0] == 0.0
    assert ro.stocks[1, 0] == pytest.approx(0.8)


def test_step_rewards_quadratic_backlog():
    r = step_rewards(np.array([-0.5, 0.0, 1.3]))
    assert np.array_equal(r, [-0.25, 0.0, 0.0])


def out_edge_fractions(env, rng: np.random.Generator) -> np.ndarray:
    """A random valid allocation's (E,) out-edge fractions: each agent's
    Dirichlet draw over its slots without the retained fraction."""
    return np.concatenate([rng.dirichlet(np.ones(len(out) + 1))[1:]
                           for out in out_neighbors(env.graph)])


def test_transition_conserves_stock_without_demand():
    env = make_env()
    rng = np.random.default_rng(1)
    stocks = rng.uniform(-0.5, 2.0, size=9)
    nxt = env.apply_transition(stocks, out_edge_fractions(env, rng), np.zeros(9))
    assert np.isclose(nxt.sum(), stocks.sum(), atol=1e-12)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=50, deadline=None)
def test_transition_balance_identity(seed):
    # Total stock changes only through demand, for any valid allocation.
    env = make_env()
    rng = np.random.default_rng(seed)
    stocks = rng.uniform(-1.0, 2.0, size=9)
    frac = out_edge_fractions(env, rng)
    d = rng.uniform(0.0, 0.4, size=9)
    nxt = env.apply_transition(stocks, frac, d)
    assert np.isclose(nxt.sum(), stocks.sum() - d.sum(), atol=1e-10)


def test_initial_state_jitter_and_fixed_mode():
    env = make_env(initial_stock_jitter=0.01)
    rng = np.random.default_rng(5)
    traces = [env.draw_noise_trace(8, rng) for _ in range(20)]
    for tr in traces:
        assert np.all(np.abs(tr[0]) <= 0.01)
    zero = make_env(initial_stock_jitter=0.0)
    rng = np.random.default_rng(5)
    tr = zero.draw_noise_trace(8, rng)
    assert np.array_equal(zero.initial_stocks(tr), np.ones(9))
    # a zero jitter draws nothing: the generator moves only for the shocks
    shocks = np.random.default_rng(5).normal(0.0, 0.1, size=(8, 9))
    assert np.array_equal(tr[1:], shocks)


def test_env_rejects_bad_amplitude():
    with pytest.raises(ValueError, match="agent 1"):
        make_env(demand_amplitude=1.5)
    with pytest.raises(ValueError, match="agent 3"):
        make_env(demand_amplitude=[0.2, 0.2, -0.1] + [0.2] * 6)
    with pytest.raises(ValueError, match="length 9"):
        make_env(demand_amplitude=[0.2, 0.2])


def test_allocation_contract_violations():
    env = make_env(build_graph(2, [(1, 2)]))
    rng = np.random.default_rng(0)
    with pytest.raises(RolloutError, match="agent 1.*outside.*at step 0"):
        simulate_rollout(env, FixedAllocation([1.5]), 
                         noise_trace=env.draw_noise_trace(2, rng))
    env3 = make_env(build_graph(3, [(1, 2), (1, 3)]))
    with pytest.raises(RolloutError, match="agent 1 ships more"):
        simulate_rollout(env3, FixedAllocation([0.7, 0.7]), 
                         noise_trace=env3.draw_noise_trace(2, rng))
    # Shipping the whole stock is inside the contract: the rollout runs.
    ro = simulate_rollout(env, FixedAllocation([1.0]), 
                          noise_trace=env.draw_noise_trace(2, rng))
    assert np.isfinite(ro.stocks).all()


# edges (1, 2), (1, 3), (2, 3), (3, 1): agent 1 owns the first two
FOUR_EDGES = [(1, 2), (1, 3), (2, 3), (3, 1)]


def check_outcomes(env, frac, where=""):
    """The production and the reference check's verdicts on the (E,)
    out-edge fractions ``frac``: None or the error message."""
    got = []
    for check in (env.validate_allocations,
                  lambda f, w: reference_validate_allocations(env, f, w)):
        try:
            check(np.array(frac, dtype=float), where)
            got.append(None)
        except RolloutError as exc:
            got.append(str(exc))
    return got


def test_nan_allocation_fraction_is_outside_the_contract():
    # NaN fails both bound comparisons; it must still be rejected, by the
    # production check and by the reference alike.
    env = make_env(build_graph(2, [(1, 2)]))
    env4 = make_env(build_graph(3, FOUR_EDGES))
    cases = [(env, [np.nan], 1),
             (env4, [0.4, 0.4, np.nan, 0.0], 2),
             (env4, [0.4, np.nan, np.nan, 0.2], 1),
             (env4, [0.0, 0.0, 0.0, np.nan], 3),
             (env4, [0.4, 0.4, 0.5, 0.5], None)]
    for e, frac, bad in cases:
        want = None if bad is None else f"agent {bad} allocation fraction outside [0, 1] at step 2"
        assert check_outcomes(e, frac, " at step 2") == [want, want]


def test_allocation_contract_messages():
    # Each bound, one ulp to either side of it, and the per-agent sum:
    # the production check and the reference give the same verdict and
    # the same message text.
    env4 = make_env(build_graph(3, FOUR_EDGES))
    outside = "agent {} allocation fraction outside [0, 1] at step 5"
    cases = [([1.0 + 1e-12, 0.0, 0.0, 0.0], None),
             ([np.nextafter(1.0 + 1e-12, 2.0), 0.0, 0.0, 0.0], outside.format(1)),
             ([0.0, 0.0, 0.0, np.nextafter(1.0 + 1e-12, 2.0)], outside.format(3)),
             ([-1e-12, 1.0, -1e-12, 1.0], None),
             ([0.5, 0.5, np.nextafter(-1e-12, -1.0), 0.0], outside.format(2)),
             ([np.inf, 0.0, 0.0, 0.0], outside.format(1)),
             ([0.0, 0.0, 0.0, -np.inf], outside.format(3)),
             ([0.6, 0.6, 1.0, 1.0],
              "agent 1 ships more than its whole stock (fraction sum 1.2) at step 5"),
             ([0.5, 0.5 + 2e-12, 0.0, 0.0],
              "agent 1 ships more than its whole stock "
              "(fraction sum 1.000000000002) at step 5"),
             ([0.5, 0.5 + 1e-12, 0.0, 0.0], None)]
    for frac, want in cases:
        assert check_outcomes(env4, frac, " at step 5") == [want, want], frac


def test_validate_allocations_does_not_warn_on_opposite_infinities():
    # An agent holding inf and -inf sums to NaN; outside simulate_rollout's
    # errstate that sum would warn.  Both checks reject it silently.
    env = make_env(build_graph(3, [(1, 2), (1, 3)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (env.validate_allocations,
                      lambda f: reference_validate_allocations(env, f)):
            with pytest.raises(RolloutError, match="^agent 1 allocation fraction outside"):
                check(np.array([np.inf, -np.inf]))


def test_non_finite_stock_aborts():
    # Overflow is named by the guard, and the rollout emits no
    # RuntimeWarning on the way there, with a stub or the real policy.
    env = make_env(build_graph(2, [(1, 2)]), initial_stock_mean=1.7e308,
                   initial_stock_jitter=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RolloutError, match="non-finite stock for agents \\[2\\] after step 0"):
            simulate_rollout(env, FixedAllocation([1.0]), 
                             noise_trace=env.draw_noise_trace(2, np.random.default_rng(0)))
        policy = RbfPolicy(env.graph)
        # agent 2 is a sink: its scores are never formed
        with pytest.raises(ValueError, match="non-finite allocation scores for agents \\[1\\]$"):
            simulate_rollout(env, policy.bind(np.zeros(policy.layout.total_dim)), 
                             noise_trace=env.draw_noise_trace(2, np.random.default_rng(0)))


# allocation fractions on each contract bound and one ulp to either side
NEAR_BOUNDS = (-1e-12, np.nextafter(-1e-12, -1.0), np.nextafter(-1e-12, 1.0), -0.0, 0.0,
               1.0, 1.0 + 1e-12, np.nextafter(1.0 + 1e-12, 2.0), np.nextafter(1.0 + 1e-12, 0.0))


@given(st.integers(0, 2 ** 31 - 1), st.floats(min_value=0.0, max_value=0.3),
       st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=200, deadline=None)
def test_step_functions_match_reference_bitwise(seed, special, near):
    rng = np.random.default_rng(seed)
    env = make_env(random_weakly_connected_digraph(rng, 1, 10))
    n = env.num_agents
    stocks = sprinkle(rng, rng.uniform(-2.0, 2.0, n), SPECIAL_VALUES, special)
    demands = sprinkle(rng, rng.uniform(0.0, 0.5, n), SPECIAL_VALUES, special)
    rows = []
    for k in [len(out) + 1 for out in out_neighbors(env.graph)]:
        row = rng.dirichlet(np.ones(k))[1:]
        if k > 1 and rng.random() < near:  # out-fractions summing to ~1 + 1e-12
            row[:] = rng.choice([1.0, 1.0 + 1e-12, 1.0 + 2e-12]) / (k - 1)
        rows.append(row)
    frac = sprinkle(rng, sprinkle(rng, np.concatenate(rows), NEAR_BOUNDS, near),
                    SPECIAL_VALUES, special / 4)

    with np.errstate(all="ignore"):
        state = env.observation_matrix(stocks, demands)
        pairs = [(state[:n], stocks), (state[n:], demands),
                 (state[RbfPolicy(env.graph)._obs_index],
                  reference_observation_matrix(env.graph, stocks, demands)),
                 (step_rewards(stocks), reference_step_rewards(stocks)),
                 (env.apply_transition(stocks, frac, demands),
                  reference_apply_transition(env, stocks, frac, demands))]
    for got, want in pairs:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def outcome(check, *args):
        try:
            check(*args, where=" at step 3")
        except RolloutError as exc:
            return str(exc)
        return None

    assert (outcome(env.validate_allocations, frac)
            == outcome(reference_validate_allocations, env, frac))


def test_observation_layout():
    # The environment hands over the (2N,) state; the policy's
    # ``_obs_index`` gathers each agent's observed stocks, then its demand.
    env = make_env()
    stocks = np.arange(1.0, 10.0)
    d = np.linspace(0.1, 0.9, 9)
    state = env.observation_matrix(stocks, d)
    assert state.tobytes() == np.concatenate((stocks, d)).tobytes()
    obs = state[RbfPolicy(env.graph)._obs_index]
    # every agent of this graph ships, so S = 2N + E entries
    obs_sets = observation_sets(env.graph)
    assert obs.shape == (2 * 9 + len(env.graph.edges),)
    start = np.cumsum([0] + [len(s) + 1 for s in obs_sets])
    # Agent 3 observes stocks of {3, 4} then its demand.
    assert obs_sets[2] == [3, 4]
    assert np.array_equal(obs[start[2]:start[3]], [3.0, 4.0, d[2]])
    # Agent 7 has in-neighbors {2, 4, 6, 9}.
    assert obs_sets[6] == [2, 4, 6, 7, 9]
    assert np.array_equal(obs[start[6]:start[7]], [2.0, 4.0, 6.0, 7.0, 9.0, d[6]])


def test_rollout_replay_is_bit_identical():
    env = make_env()
    pol = RbfPolicy(env.graph)
    bound = pol.bind(np.random.default_rng(3).normal(scale=0.3, size=pol.layout.total_dim))
    trace = env.draw_noise_trace(8, np.random.default_rng(11))
    ro1 = simulate_rollout(env, bound, noise_trace=trace)
    ro2 = simulate_rollout(env, bound, noise_trace=trace)
    for a, b in [(ro1.stocks, ro2.stocks), (ro1.rewards, ro2.rewards),
                 (ro1.returns, ro2.returns)]:
        assert a.tobytes() == b.tobytes()


def test_rollout_returns_are_nonpositive_and_discounted():
    env = make_env()
    trace = env.draw_noise_trace(8, np.random.default_rng(0))
    ro = simulate_rollout(env, FixedAllocation.uniform(env), discount=1.0,
                          noise_trace=trace)
    assert np.all(ro.returns <= 0.0)
    assert np.array_equal(ro.returns, ro.rewards.sum(axis=0))
    half = simulate_rollout(env, FixedAllocation.uniform(env), discount=0.5,
                            noise_trace=trace)
    weights = 0.5 ** np.arange(8)
    assert np.allclose(half.returns, weights @ ro.rewards)


def test_rewards_use_pre_transition_stock():
    env = make_env()
    ro = simulate_rollout(env, FixedAllocation.uniform(env), 
                          noise_trace=env.draw_noise_trace(8, np.random.default_rng(7)))
    assert np.array_equal(ro.rewards, step_rewards(ro.stocks[:-1].reshape(8, 9)))
    assert np.all(ro.rewards[0] == 0.0)  # initial stocks are ~1
    assert np.any(ro.stocks[:-1] < 0)  # demand eventually drains someone


def test_decoupled_agent_trajectory_is_bitwise_identical():
    # Perturbing a mid-chain agent cannot touch the upstream source.
    g = build_graph(3, [(1, 2), (2, 3)])
    env = make_env(g)
    pol = RbfPolicy(g)
    rng = np.random.default_rng(21)
    base = rng.normal(scale=0.3, size=pol.layout.total_dim)
    bumped = base.copy()
    bumped[pol.layout.block_slice(2)] += 0.7
    tr = env.draw_noise_trace(8, rng)
    ro_a = simulate_rollout(env, pol.bind(base), noise_trace=tr)
    ro_b = simulate_rollout(env, pol.bind(bumped), noise_trace=tr)
    assert np.array_equal(ro_a.stocks[:, 0], ro_b.stocks[:, 0])
    assert np.array_equal(ro_a.rewards[:, 0], ro_b.rewards[:, 0])
    assert not np.array_equal(ro_a.stocks[:, 2], ro_b.stocks[:, 2])


def test_sink_parameter_blocks_are_inert():
    # A sink's one slot holds its retained fraction exp(0)/exp(0) = 1, so
    # no value of its block, however wild, moves a bit of the episode.
    rng = np.random.default_rng(34)
    graphs = [build_graph(1, [])]
    while len(graphs) < 16:
        g = random_weakly_connected_digraph(rng, 2, 10)
        if not all(out_neighbors(g)):
            graphs.append(g)
    for g in graphs:
        env, pol = make_env(g), RbfPolicy(g, num_centers=int(rng.integers(1, 5)))
        sinks = [pol.layout.block_slice(i) for i, out in enumerate(out_neighbors(g), 1)
                 if not out]
        theta = rng.normal(scale=0.3, size=pol.layout.total_dim)
        for block in sinks:
            theta[block] = 0.0
        trace = env.draw_noise_trace(8, rng)
        want = simulate_rollout(env, pol.bind(theta), noise_trace=trace)
        for value in (np.nan, np.inf, -np.inf, 1e308):
            wild = theta.copy()
            for block in sinks:
                wild[block] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = simulate_rollout(env, pol.bind(wild), noise_trace=trace)
            for a, b in [(got.stocks, want.stocks), (got.rewards, want.rewards),
                         (got.returns, want.returns)]:
                assert a.tobytes() == b.tobytes(), (g.edges, value)


def test_two_resets_same_seed_identical():
    env = make_env()
    t1 = env.draw_noise_trace(8, np.random.default_rng(42))
    t2 = env.draw_noise_trace(8, np.random.default_rng(42))
    assert np.array_equal(env.initial_stocks(t1), env.initial_stocks(t2))
    assert np.array_equal(t1[0], t2[0])
    assert np.array_equal(t1[1:], t2[1:])


def test_environment_spec_validation():
    # The episode shape is checked where episodes run: in simulate_rollout.
    env = make_env()
    policy = FixedAllocation.uniform(env)
    trace = env.draw_noise_trace(8, np.random.default_rng(0))
    with pytest.raises(ValueError, match="horizon T >= 1"):  # a horizon of 0
        simulate_rollout(env, policy, noise_trace=trace[:1])
    for discount in (0.0, -0.5, 1.2):
        with pytest.raises(ValueError, match="discount"):
            simulate_rollout(env, policy, discount=discount, noise_trace=trace)
    with pytest.raises(TypeError, match="noise_trace"):  # no trace, no fresh draw
        simulate_rollout(env, policy)


def test_trace_shape_mismatch_rejected():
    env = make_env()
    for tr in (np.zeros((5, 8)), np.zeros(9), np.zeros((4, 9, 1))):
        with pytest.raises(ValueError, match=r"noise trace has shape .*, expected \(T \+ 1, 9\)"):
            simulate_rollout(env, FixedAllocation.uniform(env), noise_trace=tr)


def test_trace_rows_are_the_jitter_then_the_shocks():
    # One (T+1, N) block: row 0 from the uniform jitter draw, rows 1..T
    # from the normal shock draw, in that generator order.
    env = make_env(initial_stock_jitter=0.01, demand_noise_std=0.1)
    tr = env.draw_noise_trace(8, np.random.default_rng(6))
    rng = np.random.default_rng(6)
    assert tr.shape == (9, 9)
    assert tr[0].tobytes() == rng.uniform(-0.01, 0.01, size=9).tobytes()
    assert tr[1:].tobytes() == rng.normal(0.0, 0.1, size=(8, 9)).tobytes()
    assert np.array_equal(env.initial_stocks(tr), 1.0 + tr[0])


def _workload_env(name, tmp_path):
    """The environment and policy of a benchmark workload's config."""
    if name == "tree1k":
        path = workloads.write_tree1k(str(tmp_path), 0, 2)
    else:
        path = os.path.join(ROOT, "configs", f"{name}.cfg")
    cfg = load_config(path)
    return WarehouseEnv(cfg.warehouse), RbfPolicy(cfg.graph, **asdict(cfg.policy))


@pytest.mark.parametrize("name", ["example1", "example2", "tree1k"])
def test_step_functions_neither_mutate_nor_alias_their_inputs(name, tmp_path):
    # Each step function returns a fresh array and leaves every input
    # byte-equal, so a rollout's stored rows and its trace stay as written.
    env, policy = _workload_env(name, tmp_path)
    rng = np.random.default_rng(3)
    n = env.num_agents
    theta = rng.normal(0.0, 0.3, policy.layout.total_dim)
    bound = policy.bind(theta)
    w_row = rng.normal(0.0, 0.1, n)
    stocks = rng.uniform(-0.5, 2.0, n)  # some backlogged, so rewards are non-zero
    demands = env.demand_row(5, w_row)
    state = env.observation_matrix(stocks, demands)
    frac = bound.act_matrix(state)
    calls = {
        "demand_row": (lambda: env.demand_row(5, w_row), [w_row, env.config.amplitude]),
        "observation_matrix": (lambda: env.observation_matrix(stocks, demands),
                               [stocks, demands]),
        "act_matrix": (lambda: bound.act_matrix(state), [state, theta]),
        "step_rewards": (lambda: step_rewards(stocks), [stocks]),
        "apply_transition": (lambda: env.apply_transition(stocks, frac, demands),
                             [stocks, frac, demands]),
        "validate_allocations": (lambda: env.validate_allocations(frac), [frac]),
    }
    for what, (call, inputs) in calls.items():
        before = [x.tobytes() for x in inputs]
        out = call()
        assert [x.tobytes() for x in inputs] == before, f"{what} changed an input"
        if out is not None:
            shared = [k for k, x in enumerate(inputs) if np.shares_memory(out, x)]
            assert shared == [], f"{what} returns memory of its input(s) {shared}"
