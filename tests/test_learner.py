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
from dirmarl.oracles import sample_perturbation
from dirmarl.policy import RbfPolicy
from dirmarl.validation import make_synthetic
from dirmarl.warehouse import WarehouseConfig, WarehouseEnv, simulate_rollout

from helpers import (SyntheticEvaluator, ascending_reach_sums, bus_links, closed_reach,
                     draw_streams, learning_edge_set, nine_agent_graph,
                     random_weakly_connected_digraph, tree_with_back_edges)


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
        cfg = parse_algorithm(name, delta=0.25, step_size=0.5)
        assert cfg.delta == 0.25
        assert cfg.step_size == 0.5
        scope, flavor = name.split("_", 1)
        assert cfg.scope == scope
        assert cfg.flavor == flavor


def test_parse_algorithm_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown algorithm"):
        parse_algorithm("federated_three_point", delta=0.1, step_size=0.01)


# -- reward exchange --------------------------------------------------


def test_exchange_on_chain():
    arts = chain_artifacts()
    bus = MessageBus(arts.learning)
    bus.begin_episode(0)
    hat = bus.exchange(np.array([1.0, 2.0, 4.0]))
    count = bus.finish_episode()
    assert np.array_equal(hat, [7.0, 6.0, 4.0])
    assert count == len(arts.learning.edges) == 3


def test_exchange_single_agent_is_identity():
    arts = build_artifacts(build_graph(1, []))
    bus = MessageBus(arts.learning)
    bus.begin_episode(0)
    hat = bus.exchange(np.array([3.5]))
    assert bus.finish_episode() == 0
    assert np.array_equal(hat, [3.5])


def test_exchange_strongly_connected_yields_global_value():
    arts = build_artifacts(build_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))
    bus = MessageBus(arts.learning)
    values = np.array([0.5, -1.25, 2.0, 4.0])
    bus.begin_episode(0)
    hat = bus.exchange(values)
    bus.finish_episode()
    total = ((values[0] + values[1]) + values[2]) + values[3]
    assert np.all(hat == total)


def test_exchange_values_recompute_exactly():
    # agent i's value is the running sum, in ascending agent order, of
    # every agent in its brute-force reach closure (itself included).
    # The 300-agent chain has source counts 1..300; the 1000-agent tree
    # is tree1k-sized.  ``gather`` is the same plan without the audit,
    # on any trailing axes.
    rng = np.random.default_rng(7)
    graphs = [random_weakly_connected_digraph(rng) for _ in range(25)]
    graphs += [build_graph(1, [])] * 2
    graphs += [tree_with_back_edges(rng, int(rng.integers(20, 41))) for _ in range(6)]
    graphs += [build_graph(300, [(i, i + 1) for i in range(1, 300)]),
               tree_with_back_edges(rng, 1000)]
    for graph in graphs:
        bus = MessageBus(build_artifacts(graph).learning)
        # one first source per agent plus one (target, source) pair per edge
        assert bus._first.shape == (graph.num_agents,)
        assert bus._dst.shape == bus._src.shape == (bus.num_edges,)
        for shape in ((graph.num_agents,), (graph.num_agents, 2)):
            values = rng.standard_normal(shape)
            values[rng.random(values.shape) < 0.1] = -0.0
            bus.begin_episode(len(shape))
            hat = bus.exchange(values)
            assert bus.finish_episode() == bus.num_edges
            want = ascending_reach_sums(graph, values.reshape(graph.num_agents, -1).T).T
            assert hat.tobytes() == want.reshape(shape).tobytes()  # sign bits of zeros included
        values = rng.standard_normal((graph.num_agents, 7))
        values[rng.random(values.shape) < 0.1] = -0.0
        hat = bus.gather(values)
        want = np.stack([ascending_reach_sums(graph, values[:, c][None])[0]
                         for c in range(values.shape[1])], axis=1)
        assert hat.tobytes() == want.tobytes()
        assert bus.episodes_completed == 2  # gather runs no exchange


def test_exchange_two_row_payload():
    arts = chain_artifacts()
    bus = MessageBus(arts.learning)
    payload = np.array([[1.0, 10.0], [2.0, 20.0], [4.0, 40.0]])
    bus.begin_episode(0)
    hat = bus.exchange(payload)
    assert bus.finish_episode() == 3  # both values share the per-edge message
    assert np.array_equal(hat, [[7.0, 70.0], [6.0, 60.0], [4.0, 40.0]])


def test_exchange_rejects_wrong_width():
    bus = MessageBus(chain_artifacts().learning)
    bus.begin_episode(0)
    with pytest.raises(ValueError, match="expected 3 agent entries"):
        bus.exchange(np.zeros(5))
    with pytest.raises(ValueError, match="expected 3 agent entries"):
        bus.gather(np.zeros((1, 3)))


# -- bus audit --------------------------------------------------------


def test_send_outside_graph_is_a_hard_failure():
    # chain 1 -> 2 -> 3: E_L = {2 -> 1, 3 -> 1, 3 -> 2}, senders by target
    # [[1, 2], [2], []] (0-based); the bus audits the arrays it slices
    learning = chain_artifacts().learning
    assert learning.indptr.tolist() == [0, 2, 3, 3] and learning.indices.tolist() == [1, 2, 2]
    for senders, match in (([1, 2, 3], "4 -> 2 has its sender outside 1..3"),
                           ([1, 2, 1], "2 -> 2 is a self-pair"),
                           ([2, 2, 2], "3 -> 1 repeats a sender"),
                           ([2, 1, 2], "2 -> 1 repeats a sender or is out of ascending order")):
        with pytest.raises(CommunicationViolation, match=match):
            MessageBus(replace(learning, indices=np.array(senders)))
    # one sender per target: the audit checks the arrays' form, not reach
    lone = replace(learning, indptr=np.array([0, 1, 2, 3]))
    with pytest.raises(CommunicationViolation, match="3 -> 3 is a self-pair"):
        MessageBus(replace(lone, indices=np.array([1, 2, 2])))
    assert bus_links(MessageBus(replace(lone, indices=np.array([1, 2, 1])))) == \
        {(2, 1), (3, 2), (2, 3)}


def test_send_requires_open_episode():
    bus = MessageBus(chain_artifacts().learning)
    with pytest.raises(CommunicationViolation, match="no episode"):
        bus.exchange(np.ones(3))
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
    bus.exchange(np.ones(3))
    bus.exchange(np.ones(3))
    with pytest.raises(CommunicationViolation, match="episode 0 ran 2 exchanges"):
        bus.finish_episode()


def test_bus_counts_one_message_per_edge_per_episode():
    arts = chain_artifacts()
    bus = MessageBus(arts.learning)
    assert bus.num_edges == 3
    assert bus_links(bus) == {(2, 1), (3, 1), (3, 2)} == learning_edge_set(arts.learning)
    for epoch in range(2):
        bus.begin_episode(epoch)
        bus.exchange(np.arange(3.0))
        assert bus.finish_episode() == 3
    assert bus.total_messages == 6
    assert bus.episodes_completed == 2


# -- single episodes on the warehouse ---------------------------------


def test_episode_message_count_and_record_shape():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    cfg = LearnerConfig(step_size=0.01, delta=0.1)
    bus = MessageBus(arts.learning)
    theta = np.zeros(policy.layout.total_dim)
    (u,), (trace,) = draw_streams(ev, 1, np.random.default_rng(3))
    theta1, rec, _ = run_episode(theta, ev, cfg, bus, 0, perturbation=u, noise=trace,
                                 residual_state=np.zeros(3))
    assert rec.message_count == len(arts.learning.edges)
    assert rec.epoch == 0
    assert rec.observed_values.shape == (3,)
    assert rec.local_values.shape == (3,)
    assert rec.gradient_norms.shape == (3,)
    assert rec.global_value == rec.observed_values.sum()
    assert theta1.shape == theta.shape
    # local values recompute exactly from the observed ones
    for i, reach in enumerate(closed_reach(graph), 1):
        acc = None
        for j in reach:
            w = rec.observed_values[j - 1]
            acc = w if acc is None else acc + w
        assert rec.local_values[i - 1] == acc


def test_zero_step_size_is_a_no_op():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    cfg = LearnerConfig(step_size=0.0, delta=0.1)
    theta = np.linspace(-0.2, 0.3, policy.layout.total_dim)
    (u,), (trace,) = draw_streams(ev, 1, np.random.default_rng(0))
    theta1, rec, _ = run_episode(theta, ev, cfg, MessageBus(arts.learning), 0,
                                 perturbation=u, noise=trace, residual_state=np.zeros(3))
    assert np.array_equal(theta1, theta)
    assert np.any(rec.gradient_norms > 0)  # gradient computed, just not applied


def test_zero_rewards_leave_parameters_untouched():
    # demand far below stock on a short horizon keeps every stock
    # nonnegative, so every reward is exactly zero
    graph, env, policy = small_warehouse(
        demand_amplitude=0.01, demand_noise_std=0.0, fixed_initial_state=True)
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=2)
    (u,), (trace,) = draw_streams(ev, 1, np.random.default_rng(5))
    theta = np.full(policy.layout.total_dim, 0.05)
    cfg = LearnerConfig(step_size=0.05, delta=0.1)
    ro = simulate_rollout(env, policy.bind(theta + cfg.delta * u), 2, noise_trace=trace)
    assert np.all(ro.rewards == 0.0)  # fixture precondition
    theta1, rec, _ = run_episode(theta, ev, cfg, MessageBus(arts.learning), 0,
                                 perturbation=u, noise=trace, residual_state=np.zeros(3))
    assert np.array_equal(theta1, theta)
    assert np.all(rec.gradient_norms == 0.0)


def test_update_touches_only_own_block_direction():
    # theta'_i - theta_i must be collinear with the block of u
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    cfg = LearnerConfig(step_size=0.02, delta=0.1)
    rng = np.random.default_rng(11)
    (u,), (trace,) = draw_streams(ev, 1, rng)
    theta = rng.normal(scale=0.1, size=policy.layout.total_dim)
    theta1, rec, _ = run_episode(theta, ev, cfg, MessageBus(arts.learning), 0,
                                 perturbation=u, noise=trace, residual_state=np.zeros(3))
    step = theta1 - theta
    for i in range(1, 4):
        sl = policy.layout.block_slice(i)
        scale = cfg.step_size * rec.local_values[i - 1] / cfg.delta
        np.testing.assert_allclose(step[sl], scale * u[sl], rtol=1e-12, atol=1e-15)


def test_centralized_scope_scales_every_block_by_the_global_value():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    cfg = LearnerConfig(step_size=0.02, delta=0.1, scope="centralized")
    rng = np.random.default_rng(13)
    (u,), (trace,) = draw_streams(ev, 1, rng)
    theta = rng.normal(scale=0.1, size=policy.layout.total_dim)
    theta1, rec, _ = run_episode(theta, ev, cfg, MessageBus(arts.learning), 0,
                                 perturbation=u, noise=trace, residual_state=np.zeros(3))
    scale = cfg.step_size * rec.global_value / cfg.delta
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

        def evaluate(self, theta, noise):
            calls.append(noise)
            return self.inner.evaluate(theta, noise)

    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = Spy(WarehouseEvaluator(env, policy, horizon=4))
    cfg = LearnerConfig(step_size=0.01, delta=0.1, flavor="two_point")
    (u,), (trace,) = draw_streams(ev.inner, 1, np.random.default_rng(2))
    run_episode(np.zeros(policy.layout.total_dim), ev, cfg, MessageBus(arts.learning), 0,
                perturbation=u, noise=trace, residual_state=np.zeros(3))
    assert len(calls) == 2
    assert calls[0] is calls[1]  # common randomness: the same trace object


def test_run_episode_requires_its_streams():
    # no stream has a default that would draw fresh randomness
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    cfg = LearnerConfig(step_size=0.01, delta=0.1)
    (u,), (trace,) = draw_streams(ev, 1, np.random.default_rng(0))
    streams = dict(perturbation=u, noise=trace, residual_state=np.zeros(3))
    for name in streams:
        kw = {k: v for k, v in streams.items() if k != name}
        with pytest.raises(TypeError, match=name):
            run_episode(np.zeros(policy.layout.total_dim), ev, cfg,
                        MessageBus(arts.learning), 0, **kw)


def test_evaluator_rejects_mismatched_graph():
    graph, env, _ = small_warehouse()
    other = build_graph(3, [(1, 2), (1, 3)])
    policy = RbfPolicy(other, num_centers=2)
    with pytest.raises(ValueError, match="different graphs"):
        WarehouseEvaluator(env, policy, horizon=4)
    # same edges, one more (isolated) agent on the policy side
    env2 = WarehouseEnv(WarehouseConfig(build_graph(2, [(1, 2)])))
    with pytest.raises(ValueError, match="different graphs"):
        WarehouseEvaluator(env2, RbfPolicy(build_graph(3, [(1, 2)])), horizon=4)
    # an equal graph built separately is accepted
    WarehouseEvaluator(env, RbfPolicy(build_graph(3, [(1, 2), (2, 3)])), horizon=4)


# -- residual feedback ------------------------------------------------


def test_residual_first_episode_matches_one_point():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    rng = np.random.default_rng(17)
    (u,), (trace,) = draw_streams(ev, 1, rng)
    theta = rng.normal(scale=0.1, size=policy.layout.total_dim)
    kw = dict(perturbation=u, noise=trace, residual_state=np.zeros(3))
    got = {}
    for flavor in ("one_point", "residual"):
        cfg = LearnerConfig(step_size=0.02, delta=0.1, flavor=flavor)
        got[flavor], _, _ = run_episode(theta, ev, cfg, MessageBus(arts.learning), 0, **kw)
    assert np.array_equal(got["one_point"], got["residual"])


def test_residual_carries_previous_local_values():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    rng = np.random.default_rng(19)
    us = [sample_perturbation(policy.layout, rng) for _ in range(2)]
    traces = [env.draw_noise_trace(4, rng) for _ in range(2)]
    cfg = LearnerConfig(step_size=0.0, delta=0.1, flavor="residual")
    (r0, r1), _ = train(np.zeros(policy.layout.total_dim), ev, cfg,
                        MessageBus(arts.learning), us, traces)
    diff = r1.local_values - r0.local_values
    want = policy.layout.block_norms((policy.layout.expand(diff) / 0.1) * us[1])
    np.testing.assert_allclose(r1.gradient_norms, want, rtol=1e-12, atol=1e-15)


def test_residual_second_episode_at_same_point_and_noise_is_null():
    # step 0 and replayed noise make episode 2 see the exact same
    # values, so the residual difference vanishes
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    (u,), (trace,) = draw_streams(ev, 1, np.random.default_rng(23))
    cfg = LearnerConfig(step_size=0.0, delta=0.1, flavor="residual")
    records, _ = train(np.zeros(policy.layout.total_dim), ev, cfg,
                       MessageBus(arts.learning), [u, u], [trace, trace])
    assert np.all(records[1].gradient_norms == 0.0)


# -- training loop ----------------------------------------------------


def test_train_is_deterministic_given_seed():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    cfg = LearnerConfig(step_size=0.01, delta=0.1, flavor="two_point")

    def go():
        return train(np.zeros(policy.layout.total_dim), ev, cfg, MessageBus(arts.learning),
                     *draw_streams(ev, 5, np.random.default_rng(123)))

    (a, theta_a), (b, theta_b) = go(), go()
    assert np.array_equal(theta_a, theta_b)
    assert len(a) == 5
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.observed_values, rb.observed_values)
        assert np.array_equal(ra.local_values, rb.local_values)
        assert np.array_equal(ra.gradient_norms, rb.gradient_norms)
        assert ra.message_count == rb.message_count


def test_train_validates_stream_lengths():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    cfg = LearnerConfig(step_size=0.01, delta=0.1)
    us, traces = draw_streams(ev, 3, np.random.default_rng(0))
    theta0 = np.zeros(policy.layout.total_dim)
    for probes, noises in ((us[:1], traces), (us, traces[:2]), ([], [])):
        bus = MessageBus(arts.learning)
        with pytest.raises(ValueError, match=f"got {len(probes)} perturbations and "
                                             f"{len(noises)} noise traces"):
            train(theta0, ev, cfg, bus, probes, noises)
        assert bus.episodes_completed == 0  # checked before the first episode
    records, _ = train(theta0, ev, cfg, MessageBus(arts.learning), us, traces)
    assert [rec.epoch for rec in records] == [0, 1, 2]


def test_train_validates_theta_shape():
    graph, env, policy = small_warehouse()
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=4)
    cfg = LearnerConfig(step_size=0.01, delta=0.1)
    with pytest.raises(ValueError, match="theta0"):
        train(np.zeros(3), ev, cfg, MessageBus(arts.learning),
              *draw_streams(ev, 1, np.random.default_rng(0)))


def test_divergence_aborts_with_diagnostics():
    graph, env, policy = small_warehouse(demand_amplitude=0.3)
    arts = build_artifacts(graph)
    ev = WarehouseEvaluator(env, policy, horizon=6)
    cfg = LearnerConfig(step_size=1e308, delta=0.1)
    with pytest.raises(TrainingDiverged, match="one_point"):
        train(np.zeros(policy.layout.total_dim), ev, cfg, MessageBus(arts.learning),
              *draw_streams(ev, 50, np.random.default_rng(1)))


def test_learner_config_validation():
    LearnerConfig(0.0, 0.1, "two_point", "centralized")
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match="step_size"):
            LearnerConfig(step_size=bad, delta=0.1)
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError, match="delta"):
            LearnerConfig(step_size=0.1, delta=bad)
    with pytest.raises(ValueError, match="flavor"):
        LearnerConfig(step_size=0.1, delta=0.1, flavor="three_point")
    with pytest.raises(ValueError, match="scope"):
        LearnerConfig(step_size=0.1, delta=0.1, scope="federated")


# -- gradient correctness against the environment ---------------------


def test_local_and_global_finite_differences_agree_per_block():
    # noise-free warehouse: the finite-difference gradient of the total
    # return w.r.t. block i must match that of agent i's local return
    graph, env, policy = small_warehouse(
        demand_noise_std=0.0, fixed_initial_state=True)
    horizon = 4
    trace = env.draw_noise_trace(horizon, np.random.default_rng(0))
    reach = closed_reach(graph)

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
    cfg = LearnerConfig(step_size=0.02, delta=0.01, flavor="two_point")
    bus = MessageBus(arts.learning)
    _, theta_final = train(theta0, ev, cfg, bus, *draw_streams(ev, 2000, np.random.default_rng(37)))
    gk = float(np.linalg.norm(obj.gradient(theta_final)))
    assert gk < 0.1 * g0
    assert bus.total_messages == 2000 * len(arts.learning.edges)


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
            cfg = LearnerConfig(step_size=0.01, delta=0.1, scope=scope)
            ev = WarehouseEvaluator(env, policy, horizon)
            records, _ = train(np.zeros(policy.layout.total_dim), ev, cfg,
                               MessageBus(arts.learning), us, traces)
            sq[scope] += [float((rec.gradient_norms ** 2).sum()) for rec in records]
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
