"""Training loop, audited reward exchange, and schedule formulas."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dirmarl.graphs import build_artifacts, build_graph
from dirmarl.learner import (
    ALGORITHMS,
    CommunicationViolation,
    LearnerConfig,
    MessageBus,
    ScheduleResult,
    TrainingDiverged,
    WarehouseEvaluator,
    accuracy_schedule,
    parse_algorithm,
    run_episode,
    schedule_bound_constant,
    train,
)
from dirmarl.oracles import OracleConfig, ResidualState, sample_perturbation
from dirmarl.policy import RbfPolicy
from dirmarl.validation import SyntheticEvaluator, make_synthetic
from dirmarl.warehouse import WarehouseConfig, WarehouseEnv, simulate_rollout

from helpers import nine_agent_graph, random_weakly_connected_digraph, transitive_closure


def chain_artifacts():
    return build_artifacts(build_graph(3, [(1, 2), (2, 3)]))


def small_warehouse(num_centers=2, **cfg_kw):
    graph = build_graph(3, [(1, 2), (2, 3)])
    cfg = WarehouseConfig(graph=graph, **cfg_kw)
    env = WarehouseEnv(cfg)
    policy = RbfPolicy(graph, num_centers=num_centers)
    return graph, env, policy


# -- algorithm names --------------------------------------------------


def test_parse_algorithm_covers_all_names():
    for name in ALGORITHMS:
        ocfg = parse_algorithm(name, delta=0.25)
        assert ocfg.delta == 0.25
        scope, flavor = name.split("_", 1)
        assert ocfg.scope == scope
        assert ocfg.flavor == flavor


def test_parse_algorithm_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown algorithm"):
        parse_algorithm("federated_three_point", delta=0.1)


# -- reward exchange --------------------------------------------------


def test_exchange_on_chain():
    arts = chain_artifacts()
    bus = MessageBus(arts.learning)
    bus.begin_episode(0)
    hat = bus.exchange(np.array([1.0, 2.0, 4.0])[None])[0]
    count = bus.finish_episode()
    assert np.array_equal(hat, [7.0, 6.0, 4.0])
    assert count == len(arts.learning.edges) == 3


def test_exchange_single_agent_is_identity():
    arts = build_artifacts(build_graph(1, []))
    bus = MessageBus(arts.learning)
    bus.begin_episode(0)
    hat = bus.exchange(np.array([3.5])[None])[0]
    assert bus.finish_episode() == 0
    assert np.array_equal(hat, [3.5])


def test_exchange_strongly_connected_yields_global_value():
    arts = build_artifacts(build_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))
    bus = MessageBus(arts.learning)
    values = np.array([0.5, -1.25, 2.0, 4.0])
    bus.begin_episode(0)
    hat = bus.exchange(values[None])[0]
    bus.finish_episode()
    total = ((values[0] + values[1]) + values[2]) + values[3]
    assert np.all(hat == total)


def tree_with_back_edges(rng, n):
    """Random recursive out-tree on agents 1..n (the root reaches
    everyone, leaves only themselves) plus a few child -> parent back
    edges, so per-agent source counts range from 1 to n."""
    parent = {c: int(rng.integers(1, c)) for c in range(2, n + 1)}
    edges = [(p, c) for c, p in parent.items()]
    for c in rng.choice(np.arange(2, n + 1), size=min(n - 1, 3), replace=False):
        edges.append((int(c), parent[int(c)]))
    return build_graph(n, edges)


def test_exchange_values_recompute_exactly():
    # agent i's value is the running sum, in ascending agent order, of
    # every agent in its brute-force reach closure (itself included)
    rng = np.random.default_rng(7)
    graphs = [random_weakly_connected_digraph(rng) for _ in range(25)]
    graphs += [build_graph(1, [])] * 2
    graphs += [tree_with_back_edges(rng, int(rng.integers(20, 41))) for _ in range(6)]
    for graph in graphs:
        closure = transitive_closure(graph)
        bus = MessageBus(build_artifacts(graph).learning)
        for rows in (1, 2):
            values = rng.standard_normal((rows, graph.num_agents))
            values[rng.random(values.shape) < 0.1] = -0.0
            bus.begin_episode(rows)
            hat = bus.exchange(values)
            assert bus.finish_episode() == len(bus.edges)
            want = np.empty_like(values)
            for i in graph.agents:
                acc = None
                for j in graph.agents:
                    if j == i or closure[i, j]:
                        acc = values[:, j - 1] if acc is None else acc + values[:, j - 1]
                want[:, i - 1] = acc
            assert np.all(hat == want)
            assert np.array_equal(np.signbit(hat), np.signbit(want))


def test_exchange_two_row_payload():
    arts = chain_artifacts()
    bus = MessageBus(arts.learning)
    payload = np.array([[1.0, 2.0, 4.0], [10.0, 20.0, 40.0]])
    bus.begin_episode(0)
    hat = bus.exchange(payload)
    assert bus.finish_episode() == 3  # both rows share the per-edge message
    assert np.array_equal(hat, [[7.0, 6.0, 4.0], [70.0, 60.0, 40.0]])


def test_exchange_rejects_wrong_width():
    bus = MessageBus(chain_artifacts().learning)
    bus.begin_episode(0)
    with pytest.raises(ValueError, match="columns"):
        bus.exchange(np.zeros((1, 5)))


# -- bus audit --------------------------------------------------------


def test_send_outside_graph_is_a_hard_failure():
    # chain 1 -> 2 -> 3: E_L = {2 -> 1, 3 -> 1, 3 -> 2}
    learning = chain_artifacts().learning
    extra = replace(learning, in_neighbors={**learning.in_neighbors, 3: (1,)})
    with pytest.raises(CommunicationViolation, match="1 -> 3 is outside E_L"):
        MessageBus(extra)  # reward would flow opposite to reach
    missing = replace(learning, in_neighbors={**learning.in_neighbors, 2: ()})
    with pytest.raises(CommunicationViolation, match="3 -> 2 is in E_L but not in the plan"):
        MessageBus(missing)


def test_send_requires_open_episode():
    bus = MessageBus(chain_artifacts().learning)
    with pytest.raises(CommunicationViolation, match="no episode"):
        bus.exchange(np.ones((1, 3)))
    with pytest.raises(CommunicationViolation, match="no episode"):
        bus.finish_episode()


def test_double_begin_rejected():
    bus = MessageBus(chain_artifacts().learning)
    bus.begin_episode(0)
    with pytest.raises(CommunicationViolation, match="still open"):
        bus.begin_episode(1)


def test_missing_message_detected_at_finish():
    bus = MessageBus(chain_artifacts().learning)
    bus.begin_episode(4)
    with pytest.raises(CommunicationViolation, match="episode 4 ran 0 exchanges"):
        bus.finish_episode()


def test_duplicate_message_detected_at_finish():
    bus = MessageBus(chain_artifacts().learning)
    bus.begin_episode(0)
    bus.exchange(np.ones((1, 3)))
    bus.exchange(np.ones((1, 3)))
    with pytest.raises(CommunicationViolation, match="episode 0 ran 2 exchanges"):
        bus.finish_episode()


def test_bus_counts_one_message_per_edge_per_episode():
    arts = chain_artifacts()
    bus = MessageBus(arts.learning)
    assert bus.edges == ((2, 1), (3, 1), (3, 2)) == tuple(sorted(arts.learning.edges))
    assert bus.expected_messages == 3
    for epoch in range(2):
        bus.begin_episode(epoch)
        bus.exchange(np.arange(3.0)[None])
        assert bus.finish_episode() == 3
    assert bus.total_messages == 6
    assert bus.episodes_completed == 2


# -- single episodes on the warehouse ---------------------------------


def test_episode_message_count_and_record_shape():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    cfg = LearnerConfig(step_size=0.01, num_epochs=1,
                        oracle=OracleConfig(delta=0.1))
    bus = MessageBus(arts.learning)
    theta = policy.zero_params().flat
    rng = np.random.default_rng(3)
    theta1, rec, _ = run_episode(theta, ev, cfg, bus, 0, rng)
    assert rec.message_count == len(arts.learning.edges)
    assert rec.epoch == 0
    assert rec.observed_values.shape == (3,)
    assert rec.local_values.shape == (3,)
    assert rec.gradient_norms.shape == (3,)
    assert rec.global_value == rec.observed_values.sum()
    assert rec.wall_clock >= 0.0
    assert theta1.shape == theta.shape
    # local values recompute exactly from the observed ones
    for i in range(1, 4):
        acc = None
        for j in arts.reach.reach_closed_sorted(i):
            w = rec.observed_values[j - 1]
            acc = w if acc is None else acc + w
        assert rec.local_values[i - 1] == acc


def test_zero_step_size_is_a_no_op():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    cfg = LearnerConfig(step_size=0.0, num_epochs=1,
                        oracle=OracleConfig(delta=0.1))
    theta = np.linspace(-0.2, 0.3, policy.layout.total_dim)
    theta1, rec, _ = run_episode(theta, ev, cfg, MessageBus(arts.learning), 0,
                                 np.random.default_rng(0))
    assert np.array_equal(theta1, theta)
    assert np.any(rec.gradient_norms > 0)  # gradient computed, just not applied


def test_zero_rewards_leave_parameters_untouched():
    # demand far below stock on a short horizon keeps every stock
    # nonnegative, so every reward is exactly zero
    graph, env, policy = small_warehouse(
        demand_amplitude=0.01, demand_noise_std=0.0, fixed_initial_state=True)
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=2)
    rng = np.random.default_rng(5)
    u = sample_perturbation(policy.layout, rng)
    trace = ev.draw_noise(rng)
    theta = np.full(policy.layout.total_dim, 0.05)
    ocfg = OracleConfig(delta=0.1)
    ro = simulate_rollout(env, policy.bind(theta + ocfg.delta * u), 2, noise_trace=trace)
    assert np.all(ro.rewards == 0.0)  # fixture precondition
    cfg = LearnerConfig(step_size=0.05, num_epochs=1, oracle=ocfg)
    theta1, rec, _ = run_episode(theta, ev, cfg, MessageBus(arts.learning), 0,
                                 perturbation=u, noise=trace)
    assert np.array_equal(theta1, theta)
    assert np.all(rec.gradient_norms == 0.0)


def test_update_touches_only_own_block_direction():
    # theta'_i - theta_i must be collinear with the block of u
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    cfg = LearnerConfig(step_size=0.02, num_epochs=1,
                        oracle=OracleConfig(delta=0.1))
    rng = np.random.default_rng(11)
    u = sample_perturbation(policy.layout, rng)
    trace = ev.draw_noise(rng)
    theta = rng.normal(scale=0.1, size=policy.layout.total_dim)
    theta1, rec, _ = run_episode(theta, ev, cfg, MessageBus(arts.learning), 0,
                                 perturbation=u, noise=trace)
    step = theta1 - theta
    for i in range(1, 4):
        sl = policy.layout.block_slice(i)
        scale = cfg.step_size * rec.local_values[i - 1] / cfg.oracle.delta
        np.testing.assert_allclose(step[sl], scale * u[sl], rtol=1e-12, atol=1e-15)


def test_centralized_scope_scales_every_block_by_the_global_value():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    cfg = LearnerConfig(step_size=0.02, num_epochs=1,
                        oracle=OracleConfig(delta=0.1, scope="centralized"))
    rng = np.random.default_rng(13)
    u = sample_perturbation(policy.layout, rng)
    trace = ev.draw_noise(rng)
    theta = rng.normal(scale=0.1, size=policy.layout.total_dim)
    theta1, rec, _ = run_episode(theta, ev, cfg, MessageBus(arts.learning), 0,
                                 perturbation=u, noise=trace)
    scale = cfg.step_size * rec.global_value / cfg.oracle.delta
    np.testing.assert_allclose(theta1 - theta, scale * u, rtol=1e-12, atol=1e-15)
    # the exchange still ran and was audited
    assert rec.message_count == len(arts.learning.edges)


def test_two_point_reuses_the_episode_noise():
    calls = []

    class Spy:
        def __init__(self, inner):
            self.inner = inner
            self.layout = inner.layout
            self.num_agents = inner.num_agents

        def draw_noise(self, rng):
            return self.inner.draw_noise(rng)

        def evaluate(self, theta, noise):
            calls.append(noise)
            return self.inner.evaluate(theta, noise)

    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = Spy(WarehouseEvaluator(env, policy, horizon=4))
    cfg = LearnerConfig(step_size=0.01, num_epochs=1,
                        oracle=OracleConfig(delta=0.1, flavor="two_point"))
    run_episode(policy.zero_params().flat, ev, cfg, MessageBus(arts.learning), 0,
                np.random.default_rng(2))
    assert len(calls) == 2
    assert calls[0] is calls[1]  # common randomness: the same trace object


def test_run_episode_requires_rng_or_streams():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    cfg = LearnerConfig(step_size=0.01, num_epochs=1,
                        oracle=OracleConfig(delta=0.1))
    with pytest.raises(ValueError, match="rng"):
        run_episode(policy.zero_params().flat, ev, cfg, MessageBus(arts.learning), 0)


def test_evaluator_rejects_mismatched_graph():
    graph, env, _ = small_warehouse()
    other = build_graph(3, [(1, 2), (1, 3)])
    policy = RbfPolicy(other, num_centers=2)
    with pytest.raises(ValueError, match="different graphs"):
        WarehouseEvaluator(env, policy, horizon=4)


# -- residual feedback ------------------------------------------------


def test_residual_first_episode_matches_one_point():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    rng = np.random.default_rng(17)
    u = sample_perturbation(policy.layout, rng)
    trace = ev.draw_noise(rng)
    theta = rng.normal(scale=0.1, size=policy.layout.total_dim)
    kw = dict(perturbation=u, noise=trace)
    got = {}
    for flavor in ("one_point", "residual"):
        cfg = LearnerConfig(step_size=0.02, num_epochs=1,
                            oracle=OracleConfig(delta=0.1, flavor=flavor))
        got[flavor], _, _ = run_episode(theta, ev, cfg, MessageBus(arts.learning), 0, **kw)
    assert np.array_equal(got["one_point"], got["residual"])


def test_residual_carries_previous_local_values():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    rng = np.random.default_rng(19)
    us = [sample_perturbation(policy.layout, rng) for _ in range(2)]
    traces = [ev.draw_noise(rng) for _ in range(2)]
    cfg = LearnerConfig(step_size=0.0, num_epochs=2,
                        oracle=OracleConfig(delta=0.1, flavor="residual"))
    res = train(np.zeros(policy.layout.total_dim), ev, cfg,
                MessageBus(arts.learning), perturbations=us, noise_traces=traces)
    r0, r1 = res.records
    diff = r1.local_values - r0.local_values
    want = policy.layout.block_norms((policy.layout.expand(diff) / 0.1) * us[1])
    np.testing.assert_allclose(r1.gradient_norms, want, rtol=1e-12, atol=1e-15)


def test_residual_second_episode_at_same_point_and_noise_is_null():
    # step 0 and replayed noise make episode 2 see the exact same
    # values, so the residual difference vanishes
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    rng = np.random.default_rng(23)
    u = sample_perturbation(policy.layout, rng)
    trace = ev.draw_noise(rng)
    cfg = LearnerConfig(step_size=0.0, num_epochs=2,
                        oracle=OracleConfig(delta=0.1, flavor="residual"))
    res = train(np.zeros(policy.layout.total_dim), ev, cfg,
                MessageBus(arts.learning), perturbations=[u, u], noise_traces=[trace, trace])
    assert np.all(res.records[1].gradient_norms == 0.0)


# -- training loop ----------------------------------------------------


def test_train_is_deterministic_given_seed():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    cfg = LearnerConfig(step_size=0.01, num_epochs=5,
                        oracle=OracleConfig(delta=0.1, flavor="two_point"))

    def go():
        return train(np.zeros(policy.layout.total_dim), ev, cfg,
                     MessageBus(arts.learning), np.random.default_rng(123))

    a, b = go(), go()
    assert np.array_equal(a.theta_final, b.theta_final)
    assert len(a.records) == 5
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.observed_values, rb.observed_values)
        assert np.array_equal(ra.local_values, rb.local_values)
        assert np.array_equal(ra.gradient_norms, rb.gradient_norms)
        assert ra.message_count == rb.message_count


def test_train_validates_stream_lengths():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    cfg = LearnerConfig(step_size=0.01, num_epochs=3,
                        oracle=OracleConfig(delta=0.1))
    u = sample_perturbation(policy.layout, np.random.default_rng(0))
    with pytest.raises(ValueError, match="shared perturbations"):
        train(np.zeros(policy.layout.total_dim), ev, cfg, MessageBus(arts.learning),
              np.random.default_rng(0), perturbations=[u])


def test_train_validates_theta_shape():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    cfg = LearnerConfig(step_size=0.01, num_epochs=1,
                        oracle=OracleConfig(delta=0.1))
    with pytest.raises(ValueError, match="theta0"):
        train(np.zeros(3), ev, cfg, MessageBus(arts.learning), np.random.default_rng(0))


def test_divergence_aborts_with_diagnostics():
    graph, env, policy = small_warehouse(demand_amplitude=0.3)
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=6)
    cfg = LearnerConfig(step_size=1e308, num_epochs=50,
                        oracle=OracleConfig(delta=0.1))
    with pytest.raises(TrainingDiverged, match="one_point"):
        train(np.zeros(policy.layout.total_dim), ev, cfg,
              MessageBus(arts.learning), np.random.default_rng(1))


def test_learner_config_validation():
    ocfg = OracleConfig(delta=0.1)
    with pytest.raises(ValueError, match="step_size"):
        LearnerConfig(step_size=-0.1, num_epochs=1, oracle=ocfg)
    with pytest.raises(ValueError, match="num_epochs"):
        LearnerConfig(step_size=0.1, num_epochs=0, oracle=ocfg)


# -- gradient correctness against the environment ---------------------


def test_local_and_global_finite_differences_agree_per_block():
    # noise-free warehouse: the finite-difference gradient of the total
    # return w.r.t. block i must match that of agent i's local return
    graph, env, policy = small_warehouse(
        demand_noise_std=0.0, fixed_initial_state=True)
    arts = build_artifacts(graph)
    horizon = 4
    trace = env.draw_noise_trace(horizon, np.random.default_rng(0))
    reach = [arts.reach.reach_closed_sorted(i) for i in range(1, 4)]

    def returns(theta):
        return simulate_rollout(env, policy.bind(theta), horizon,
                                noise_trace=trace).returns

    rng = np.random.default_rng(29)
    theta = rng.normal(scale=0.3, size=policy.layout.total_dim)
    h = 1e-5
    for i in range(1, 4):
        sl = policy.layout.block_slice(i)
        for c in range(sl.start, sl.stop):
            up, dn = theta.copy(), theta.copy()
            up[c] += h
            dn[c] -= h
            r_up, r_dn = returns(up), returns(dn)
            d_global = (r_up.sum() - r_dn.sum()) / (2 * h)
            cols = np.asarray(reach[i - 1]) - 1
            d_local = (r_up[cols].sum() - r_dn[cols].sum()) / (2 * h)
            assert d_global == pytest.approx(d_local, rel=1e-6, abs=1e-9)


def test_training_climbs_a_concave_synthetic_objective():
    rng = np.random.default_rng(31)
    graph = build_graph(3, [(1, 2), (2, 3)])
    obj = make_synthetic(graph, rng, family="quadratic", block_dims=(2, 1, 2))
    theta0 = rng.uniform(-1.5, 1.5, size=obj.total_dim)
    g0 = float(np.linalg.norm(obj.gradient(theta0)))

    # the problem is easy for exact ascent at these settings
    theta = theta0.copy()
    for _ in range(200):
        theta += 0.1 * obj.gradient(theta)
    assert np.linalg.norm(obj.gradient(theta)) < 0.01 * g0

    arts = build_artifacts(graph)
    ev = SyntheticEvaluator(obj)
    cfg = LearnerConfig(step_size=0.02, num_epochs=2000,
                        oracle=OracleConfig(delta=0.01, flavor="two_point"))
    res = train(theta0, ev, cfg, MessageBus(arts.learning), np.random.default_rng(37))
    gk = float(np.linalg.norm(obj.gradient(res.theta_final)))
    assert gk < 0.1 * g0
    assert res.bus.total_messages == 2000 * len(arts.learning.edges)


def test_distributed_feedback_has_smaller_gradients_than_centralized():
    graph = nine_agent_graph()
    arts = build_artifacts(graph)
    cfg_env = WarehouseConfig(graph=graph)
    env = WarehouseEnv(cfg_env)
    policy = RbfPolicy(graph, num_centers=2)
    horizon, epochs, repeats = 8, 40, 10
    sq = {"distributed": [], "centralized": []}
    for r in range(repeats):
        seq = np.random.SeedSequence(entropy=900 + r)
        pert_rng, noise_rng = (np.random.default_rng(s) for s in seq.spawn(2))
        us = [sample_perturbation(policy.layout, pert_rng) for _ in range(epochs)]
        traces = [env.draw_noise_trace(horizon, noise_rng) for _ in range(epochs)]
        for scope in sq:
            cfg = LearnerConfig(step_size=0.01, num_epochs=epochs,
                                oracle=OracleConfig(delta=0.1, scope=scope))
            ev = WarehouseEvaluator(env, policy, horizon)
            res = train(np.zeros(policy.layout.total_dim), ev, cfg,
                        MessageBus(arts.learning),
                        perturbations=us, noise_traces=traces)
            sq[scope] += [float((rec.gradient_norms ** 2).sum()) for rec in res.records]
    dist, cent = np.array(sq["distributed"]), np.array(sq["centralized"])
    se = math.sqrt(dist.var(ddof=1) / dist.size + cent.var(ddof=1) / cent.size)
    assert dist.mean() < cent.mean() - 3.0 * se


# -- schedule formulas ------------------------------------------------


def test_schedule_all_ones():
    s = accuracy_schedule(eps=1.0, lipschitz=1.0, total_dim=1, epochs=1)
    assert s == ScheduleResult(1.0, 1.0, None)


def test_schedule_substitution():
    s = accuracy_schedule(eps=0.1, lipschitz=2.0, total_dim=4, epochs=100)
    assert s.delta == pytest.approx(0.1 / (2.0 * 2.0), rel=1e-15)
    assert s.eta == pytest.approx(0.1 ** 1.5 / (8.0 * 10.0), rel=1e-15)


def test_schedule_doubling_dimension_scales_eta():
    a = accuracy_schedule(eps=0.3, lipschitz=1.7, total_dim=5, epochs=64)
    b = accuracy_schedule(eps=0.3, lipschitz=1.7, total_dim=10, epochs=64)
    assert b.eta == pytest.approx(a.eta * 2.0 ** -1.5, rel=1e-12)
    assert b.delta == pytest.approx(a.delta / math.sqrt(2.0), rel=1e-12)


def test_schedule_epoch_requirement():
    b = schedule_bound_constant(j_star=1.0, j_smoothed_init=-1.0, lipschitz=1.0,
                                value_max=2.0, sigma_max=1.0)
    assert b == 1.0 - (-1.0) + (4.0 + 1.0) / 2.0
    s = accuracy_schedule(eps=0.5, lipschitz=1.0, total_dim=2, epochs=10, bound_b=b)
    assert s.epochs_required == math.ceil(2 ** 3 * b ** 2 / 0.5 ** 5)


def test_schedule_rejects_bad_inputs():
    with pytest.raises(ValueError):
        accuracy_schedule(eps=0.0, lipschitz=1.0, total_dim=1, epochs=1)
    with pytest.raises(ValueError):
        accuracy_schedule(eps=1.0, lipschitz=-1.0, total_dim=1, epochs=1)
    with pytest.raises(ValueError):
        accuracy_schedule(eps=1.0, lipschitz=1.0, total_dim=0, epochs=1)
