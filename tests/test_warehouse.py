import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirmarl.graphs import build_graph
from dirmarl.policy import RbfPolicy
from dirmarl.warehouse import (
    NoiseTrace,
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
    random_weakly_connected_digraph,
    reference_apply_transition,
    reference_observation_matrix,
    reference_step_rewards,
    reference_validate_allocations,
    sprinkle,
)


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
    env = make_env(build_graph(1, []), fixed_initial_state=True, demand_noise_std=0.0)
    ro = simulate_rollout(env, FixedAllocation([[1.0]]), horizon=1,
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
    return np.concatenate([rng.dirichlet(np.ones(k))[1:] for k in env.num_slots])


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
        assert np.all(np.abs(tr.initial_jitter) <= 0.01)
    fixed = make_env(fixed_initial_state=True)
    tr = fixed.draw_noise_trace(8, np.random.default_rng(5))
    assert np.array_equal(fixed.initial_stocks(tr), np.ones(9))
    zero = make_env(initial_stock_jitter=0.0)
    tr = zero.draw_noise_trace(8, np.random.default_rng(5))
    assert np.array_equal(zero.initial_stocks(tr), np.ones(9))


def test_demand_noise_clipping_flag():
    env = make_env(clip_demand_noise=True)
    tr = env.draw_noise_trace(2000, np.random.default_rng(0))
    assert np.max(np.abs(tr.demand_noise)) <= 0.3 + 1e-15
    raw = make_env().draw_noise_trace(2000, np.random.default_rng(0))
    assert np.max(np.abs(raw.demand_noise)) > 0.3  # clipping actually bites


def test_shared_demand_noise_flag():
    env = make_env(shared_demand_noise=True)
    tr = env.draw_noise_trace(6, np.random.default_rng(2))
    assert np.all(tr.demand_noise == tr.demand_noise[:, :1])
    solo = make_env().draw_noise_trace(6, np.random.default_rng(2))
    assert not np.all(solo.demand_noise == solo.demand_noise[:, :1])


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
        simulate_rollout(env, FixedAllocation([[-0.5, 1.5], [1.0]]), horizon=2,
                         noise_trace=env.draw_noise_trace(2, rng))
    env3 = make_env(build_graph(3, [(1, 2), (1, 3)]))
    with pytest.raises(RolloutError, match="agent 1 ships more"):
        simulate_rollout(env3, FixedAllocation([[-0.4, 0.7, 0.7], [1.0], [1.0]]), horizon=2,
                         noise_trace=env3.draw_noise_trace(2, rng))
    # The retained fraction is neither checked nor used: the rollout runs.
    ro = simulate_rollout(env, FixedAllocation([[np.nan, 1.0], [np.nan]]), horizon=2,
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
                   fixed_initial_state=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RolloutError, match="non-finite stock for agents \\[2\\] after step 0"):
            simulate_rollout(env, FixedAllocation([[0.0, 1.0], [1.0]]), horizon=2,
                             noise_trace=env.draw_noise_trace(2, np.random.default_rng(0)))
        policy = RbfPolicy(env.graph)
        with pytest.raises(ValueError, match="non-finite allocation scores for agents \\[1, 2\\]"):
            simulate_rollout(env, policy.bind(np.zeros(policy.layout.total_dim)), horizon=2,
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
    for k in env.num_slots:
        row = rng.dirichlet(np.ones(k))[1:]
        if k > 1 and rng.random() < near:  # out-fractions summing to ~1 + 1e-12
            row[:] = rng.choice([1.0, 1.0 + 1e-12, 1.0 + 2e-12]) / (k - 1)
        rows.append(row)
    frac = sprinkle(rng, sprinkle(rng, np.concatenate(rows), NEAR_BOUNDS, near),
                    SPECIAL_VALUES, special / 4)

    with np.errstate(all="ignore"):
        pairs = [(env.observation_matrix(stocks, demands),
                  reference_observation_matrix(env, stocks, demands)),
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
    env = make_env()
    stocks = np.arange(1.0, 10.0)
    d = np.linspace(0.1, 0.9, 9)
    obs = env.observation_matrix(stocks, d)
    # Agent 3 observes stocks of {3, 4} then its demand.
    assert observation_sets(env.graph)[2] == [3, 4] and env.obs_dims[2] == 3
    assert np.array_equal(obs[2, :3], [3.0, 4.0, d[2]])
    assert np.all(obs[2, 3:] == 0.0)
    # Agent 7 has in-neighbors {2, 4, 6, 9}.
    assert observation_sets(env.graph)[6] == [2, 4, 6, 7, 9] and env.obs_dims[6] == 6
    assert np.array_equal(obs[6, :6], [2.0, 4.0, 6.0, 7.0, 9.0, d[6]])


def test_rollout_replay_is_bit_identical():
    env = make_env()
    pol = RbfPolicy(env.graph)
    bound = pol.bind(np.random.default_rng(3).normal(scale=0.3, size=pol.layout.total_dim))
    trace = env.draw_noise_trace(8, np.random.default_rng(11))
    ro1 = simulate_rollout(env, bound, horizon=8, noise_trace=trace)
    ro2 = simulate_rollout(env, bound, horizon=8, noise_trace=trace)
    for a, b in [(ro1.stocks, ro2.stocks), (ro1.rewards, ro2.rewards),
                 (ro1.returns, ro2.returns)]:
        assert a.tobytes() == b.tobytes()


def test_rollout_returns_are_nonpositive_and_discounted():
    env = make_env()
    trace = env.draw_noise_trace(8, np.random.default_rng(0))
    ro = simulate_rollout(env, FixedAllocation.uniform(env), horizon=8, discount=1.0,
                          noise_trace=trace)
    assert np.all(ro.returns <= 0.0)
    assert np.array_equal(ro.returns, ro.rewards.sum(axis=0))
    half = simulate_rollout(env, FixedAllocation.uniform(env), horizon=8, discount=0.5,
                            noise_trace=trace)
    weights = 0.5 ** np.arange(8)
    assert np.allclose(half.returns, weights @ ro.rewards)


def test_rewards_use_pre_transition_stock():
    env = make_env()
    ro = simulate_rollout(env, FixedAllocation.uniform(env), horizon=8,
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
    ro_a = simulate_rollout(env, pol.bind(base), horizon=8, noise_trace=tr)
    ro_b = simulate_rollout(env, pol.bind(bumped), horizon=8, noise_trace=tr)
    assert np.array_equal(ro_a.stocks[:, 0], ro_b.stocks[:, 0])
    assert np.array_equal(ro_a.rewards[:, 0], ro_b.rewards[:, 0])
    assert not np.array_equal(ro_a.stocks[:, 2], ro_b.stocks[:, 2])


def test_two_resets_same_seed_identical():
    env = make_env()
    t1 = env.draw_noise_trace(8, np.random.default_rng(42))
    t2 = env.draw_noise_trace(8, np.random.default_rng(42))
    assert np.array_equal(env.initial_stocks(t1), env.initial_stocks(t2))
    assert np.array_equal(t1.initial_jitter, t2.initial_jitter)
    assert np.array_equal(t1.demand_noise, t2.demand_noise)


def test_environment_spec_validation():
    # The episode shape is checked where episodes run: in simulate_rollout.
    env = make_env()
    policy = FixedAllocation.uniform(env)
    trace = env.draw_noise_trace(8, np.random.default_rng(0))
    with pytest.raises(ValueError, match="horizon"):
        simulate_rollout(env, policy, horizon=0, noise_trace=trace)
    for discount in (0.0, -0.5, 1.2):
        with pytest.raises(ValueError, match="discount"):
            simulate_rollout(env, policy, horizon=8, discount=discount, noise_trace=trace)
    with pytest.raises(TypeError, match="noise_trace"):  # no trace, no fresh draw
        simulate_rollout(env, policy, horizon=8)


def test_trace_shape_mismatch_rejected():
    env = make_env()
    tr = NoiseTrace(np.zeros(9), np.zeros((4, 9)))
    with pytest.raises(ValueError, match="demand shocks"):
        simulate_rollout(env, FixedAllocation.uniform(env), horizon=8, noise_trace=tr)
