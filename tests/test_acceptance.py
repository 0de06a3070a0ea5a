"""Release acceptance suite.  Each test covers one numbered criterion,
prints a single pass/fail line with the measured margins (run with -s
to see them on success), and enforces the criterion's runtime budget.

The two experiment criteria execute the bundled configs end to end, so
this file takes a minute or two; everything is seeded and
deterministic.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from dirmarl.configio import load_config
from dirmarl.experiments import read_run_csv, run_experiment, run_file_name
from dirmarl.graphs import build_artifacts, build_graph
from dirmarl.learner import (LearnerConfig, MessageBus, WarehouseEvaluator,
                             accuracy_schedule, schedule_bound_constant, train)
from dirmarl.oracles import one_point_second_moment_bound, two_point_second_moment_bound
from dirmarl.policy import RbfPolicy
from dirmarl.validation import (finite_difference_gradient, make_synthetic,
                                mc_smoothed_gradient, oracle_moments)
from dirmarl.warehouse import WarehouseConfig, WarehouseEnv, simulate_rollout

from helpers import (brute_force_learning_edges, bus_links, closed_reach, draw_streams,
                     global_noise_std, global_value_bound, learning_edge_set,
                     random_weakly_connected_digraph)

CONFIG_DIR = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, "configs"))


def _verdict(num: int, name: str, ok: bool, detail: str, started: float,
             budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    line = (f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {elapsed:.1f}s)")
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"{name}: {elapsed:.1f}s over the {budget:.0f}s budget"


@pytest.fixture(scope="module")
def nine_agent_run(tmp_path_factory):
    cfg = load_config(os.path.join(CONFIG_DIR, "example1.cfg"))
    cfg = replace(cfg, output_dir=str(tmp_path_factory.mktemp("nine_agent")))
    started = time.perf_counter()
    summary = run_experiment(cfg)
    return cfg, summary, time.perf_counter() - started


@pytest.fixture(scope="module")
def hundred_agent_run(tmp_path_factory):
    cfg = load_config(os.path.join(CONFIG_DIR, "example2.cfg"))
    cfg = replace(cfg, output_dir=str(tmp_path_factory.mktemp("hundred_agent")))
    started = time.perf_counter()
    summary = run_experiment(cfg)
    return cfg, summary, time.perf_counter() - started


def test_01_bundled_graph_structure():
    started = time.perf_counter()
    cfg2 = load_config(os.path.join(CONFIG_DIR, "example2.cfg"))
    derived = learning_edge_set(build_artifacts(cfg2.graph).learning)
    # even agents feed both array neighbors, plus the wrap link
    stated = {(i, j) for i in range(2, 101, 2)
              for j in (i - 1, i + 1) if 1 <= j <= 100} | {(100, 1)}
    edges_ok = derived == stated

    cfg1 = load_config(os.path.join(CONFIG_DIR, "example1.cfg"))
    clusters = {frozenset(c) for c in build_artifacts(cfg1.graph).clusters.clusters}
    clusters_ok = clusters == {frozenset({1, 2}), frozenset({3, 4}),
                               frozenset({5, 6}), frozenset({7, 8, 9})}
    _verdict(1, "bundled graph structure", edges_ok and clusters_ok,
             f"{len(derived)} routing edges match the stated set, "
             f"clusters {sorted(sorted(c) for c in clusters)}", started, budget=1.0)


def test_02_learning_graph_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    checked = 0
    ok = True
    for _ in range(500):
        g = random_weakly_connected_digraph(rng)
        arts = build_artifacts(g)
        derived = learning_edge_set(arts.learning)
        ok &= derived == brute_force_learning_edges(g)
        clusters = arts.clusters.clusters
        for members in clusters:
            ok &= all((a, b) in derived
                      for a in members for b in members if a != b)
        for x, first in enumerate(clusters):
            for y, second in enumerate(clusters):
                if x == y:
                    continue
                cross = sum(1 for j in first for i in second if (j, i) in derived)
                ok &= cross in (0, len(first) * len(second))
        checked += 1
        if not ok:
            break
    _verdict(2, "learning graph properties", ok,
             f"{checked} random digraphs (N <= 12) match brute force with "
             "cluster cliques and all-or-nothing cross-cluster blocks",
             started, budget=30.0)


def test_03_local_gradient_equivalence():
    started = time.perf_counter()
    # fixed seed keeps the 3-sigma null checks deterministic; this one
    # sits well inside the region (worst z about 2.2 across ~125 coords)
    rng = np.random.default_rng(43)
    worst_fd = 0.0
    worst_z = 0.0
    exact_ok = True
    for k in range(50):
        g = random_weakly_connected_digraph(rng, 2, 6)
        obj = make_synthetic(g, rng, family="quadratic" if k % 2 == 0 else "cosine")
        theta = rng.uniform(-1.5, 1.5, size=obj.total_dim)
        grad = obj.gradient(theta)
        for i in range(1, obj.num_agents + 1):
            sl = obj.layout.block_slice(i)
            exact_ok &= np.array_equal(grad[sl], obj.local_gradient(i, theta)[sl])
        fd = finite_difference_gradient(obj.totals, theta, 1e-5)
        worst_fd = max(worst_fd, float(np.max(
            np.abs(fd - grad) / np.maximum(np.abs(grad), 1e-3))))

        i = int(rng.integers(1, obj.num_agents + 1))
        delta = float(rng.uniform(0.2, 0.6))
        est_g = mc_smoothed_gradient(obj.totals, theta, delta, 100_000, rng)
        est_l = mc_smoothed_gradient(lambda t: obj.local_totals(i, t),
                                     theta, delta, 100_000, rng)
        sl = obj.layout.block_slice(i)
        se = np.sqrt(est_g.standard_errors[sl] ** 2 + est_l.standard_errors[sl] ** 2)
        worst_z = max(worst_z, float(np.max(
            np.abs(est_g.mean[sl] - est_l.mean[sl]) / se)))
    ok = exact_ok and worst_fd <= 1e-6 and worst_z <= 3.0
    _verdict(3, "local gradient equivalence", ok,
             f"50 instances: exact block identity, worst fd error {worst_fd:.2e}, "
             f"worst smoothed-block z {worst_z:.2f}", started, budget=120.0)


def test_04_oracle_unbiasedness():
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    g = build_graph(4, [(1, 2), (2, 3), (2, 4)])
    obj = make_synthetic(g, rng, family="quadratic", noise_std=0.2)
    theta = rng.uniform(-1.0, 1.0, size=obj.total_dim)
    delta = 0.4
    target = obj.smoothed_gradient(theta, delta)
    worst = 0.0
    for flavor in ("one_point", "two_point", "residual"):
        est = oracle_moments(obj, theta, delta, 1_000_000, rng, flavor=flavor)
        z = np.abs(est.mean - target) / est.standard_errors
        worst = max(worst, float(z.max()))
    _verdict(4, "oracle unbiasedness", worst <= 3.0,
             f"three estimator means vs the analytic smoothed gradient "
             f"(d={obj.total_dim}, M=1e6): worst per-coordinate z {worst:.2f}",
             started, budget=120.0)


def test_05_second_moment_ceilings():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    g = build_graph(6, [(1, 2), (3, 2), (3, 4), (5, 4), (5, 6)])
    obj = make_synthetic(g, rng, family="cosine", noise_std=0.3)
    theta = rng.uniform(-1.0, 1.0, size=obj.total_dim)
    delta = 0.3
    samples = 200_000
    one = oracle_moments(obj, theta, delta, samples, rng, flavor="one_point")
    two = oracle_moments(obj, theta, delta, samples, rng, flavor="two_point")
    d = obj.total_dim
    ok = True
    worst_ratio = 0.0
    scale_gap = math.inf
    for i in range(1, obj.num_agents + 1):
        d_i = obj.layout.dims[i - 1]
        cap1 = one_point_second_moment_bound(
            obj.local_value_bound(i), obj.local_noise_std(i), d_i, delta)
        cap2 = two_point_second_moment_bound(
            obj.local_lipschitz(i), obj.local_noise_std(i), d_i, d)
        got1 = float(one.block_second_moments[i - 1])
        got2 = float(two.block_second_moments[i - 1])
        ok &= got1 <= cap1 + 3.0 * float(one.block_second_moment_stderrs[i - 1])
        ok &= got2 <= cap2 + 3.0 * float(two.block_second_moment_stderrs[i - 1])
        worst_ratio = max(worst_ratio, got1 / cap1, got2 / cap2)

        # feedback restricted to the reachable set must come with a
        # strictly smaller guarantee than global feedback would give
        cap1_global = one_point_second_moment_bound(
            global_value_bound(obj), global_noise_std(obj), d_i, delta)
        ok &= obj.local_value_bound(i) < global_value_bound(obj)
        ok &= cap1 < cap1_global
        ok &= got1 < cap1_global
        scale_gap = min(scale_gap, cap1_global / cap1)
    _verdict(5, "second moment ceilings", ok,
             f"all blocks below their ceilings (worst ratio {worst_ratio:.3f}); "
             f"local ceiling at least {scale_gap:.2f}x under the global one",
             started, budget=120.0)


def test_06_nine_agent_learning_contrast(nine_agent_run):
    cfg, summary, run_elapsed = nine_agent_run
    started = time.perf_counter() - run_elapsed
    gains = {alg: float(summary.mean_value[alg][-1] - summary.mean_value[alg][0])
             for alg in cfg.algorithms}
    improved = all(v > 0.0 for v in gains.values()) and not summary.aborted

    table = summary.variance_table()
    margins = {fl: row["centralized"] - row["distributed"]
               for fl, row in table.items()}
    ordered = (set(margins) == {"one_point", "two_point"}
               and all(m > 0.0 for m in margins.values()))
    _verdict(6, "nine agent learning contrast", improved and ordered,
             f"10-repeat mean gain at epoch 600 >= {min(gains.values()):+.3f} "
             f"for all four algorithms; distributed tail std lower by "
             f"{margins.get('one_point', float('nan')):+.4f} (one-point) and "
             f"{margins.get('two_point', float('nan')):+.4f} (two-point)",
             started, budget=300.0)


def test_07_hundred_agent_stability(hundred_agent_run):
    cfg, summary, run_elapsed = hundred_agent_run
    started = time.perf_counter() - run_elapsed
    dist, cent = "distributed_one_point", "centralized_one_point"
    finite = not summary.aborted
    for r in range(cfg.repeats):
        table = read_run_csv(os.path.join(cfg.output_dir, run_file_name(dist, r)))
        finite &= bool(np.isfinite(table.values).all()
                       and np.isfinite(table.grad_norms).all())

    curve = summary.mean_value[dist]
    ma = np.convolve(curve, np.full(50, 1.0 / 50.0), mode="valid")
    climb = ma[50:] - ma[:-50]
    monotone = bool(np.all(climb >= 0.0))

    var_dist = float(np.mean(summary.std_value[dist][-100:] ** 2))
    var_cent = float(np.mean(summary.std_value[cent][-100:] ** 2))
    ratio = var_cent / var_dist
    _verdict(7, "hundred agent stability", finite and monotone and ratio >= 2.0,
             f"{cfg.repeats} distributed repeats finite; 50-epoch moving average "
             f"climbs by >= {float(climb.min()):+.3f} per 50 epochs; centralized "
             f"cross-repeat variance {ratio:.1f}x the distributed one",
             started, budget=1200.0)


def test_08_communication_audit(nine_agent_run):
    cfg, summary, _ = nine_agent_run
    started = time.perf_counter()
    arts = build_artifacts(cfg.graph)
    expected = len(arts.learning.edges)
    rows = 0
    csv_ok = True
    for alg in cfg.algorithms:
        for r in range(cfg.repeats):
            table = read_run_csv(os.path.join(cfg.output_dir, run_file_name(alg, r)))
            csv_ok &= bool(np.all(table.messages == expected))
            rows += table.messages.size

    # replay a few episodes and check the bus's routing plan against
    # the brute-force reach relation
    env = WarehouseEnv(cfg.warehouse)
    policy = RbfPolicy(cfg.graph, num_centers=cfg.policy.num_centers,
                       stock_range=cfg.policy.stock_range,
                       demand_range=cfg.policy.demand_range,
                       kernel=cfg.policy.kernel)
    evaluator = WarehouseEvaluator(env, policy, cfg.horizon, cfg.discount)
    bus = MessageBus(arts.learning)
    lcfg = LearnerConfig(step_size=cfg.eta, delta=cfg.delta)
    train(np.zeros(policy.layout.total_dim), evaluator, lcfg, bus,
          *draw_streams(evaluator, 5, np.random.default_rng(0)))
    links = bus_links(bus)
    audit_ok = (links == brute_force_learning_edges(cfg.graph)
                and bus.total_messages == 5 * expected)
    _verdict(8, "communication audit", csv_ok and audit_ok,
             f"{rows} logged episodes all at {expected} messages; audited "
             f"replay used {len(links)} distinct links, all brute-force E_L", started)


def test_09_influence_decoupling():
    started = time.perf_counter()
    rng = np.random.default_rng(9)
    horizon = 8
    agents_checked = 0
    ok = True
    for _ in range(100):
        g = random_weakly_connected_digraph(rng, 2, 8)
        env = WarehouseEnv(WarehouseConfig(graph=g))
        policy = RbfPolicy(g, num_centers=2)
        layout = policy.layout
        trace = env.draw_noise_trace(horizon, rng)
        theta = rng.normal(0.0, 0.5, size=layout.total_dim)
        i = int(rng.integers(1, g.num_agents + 1))
        bumped = theta.copy()
        sl = layout.block_slice(i)
        bumped[sl] += rng.normal(0.0, 0.5, size=layout.dims[i - 1])

        base = simulate_rollout(env, policy.bind(theta), horizon, 1.0,
                                noise_trace=trace)
        moved = simulate_rollout(env, policy.bind(bumped), horizon, 1.0,
                                 noise_trace=trace)
        reached = closed_reach(g)[i - 1]
        for m in g.agents:
            if m in reached:
                continue
            col = m - 1
            ok &= np.array_equal(base.stocks[:, col], moved.stocks[:, col])
            ok &= np.array_equal(base.rewards[:, col], moved.rewards[:, col])
            ok &= base.returns[col] == moved.returns[col]
            agents_checked += 1
        if not ok:
            break
    _verdict(9, "influence decoupling", ok,
             f"100 random (graph, agent, parameter) triples; "
             f"{agents_checked} out-of-reach trajectories bit-identical",
             started, budget=60.0)


def test_10_schedule_calculator():
    started = time.perf_counter()
    ok = True

    res = accuracy_schedule(1.0, 1.0, 1, 1)
    ok &= (res.delta, res.eta, res.epochs_required) == (1.0, 1.0, None)

    res = accuracy_schedule(0.5, 2.0, 4, 25)
    ok &= res.delta == 0.125 and res.eta == 0.5 ** 1.5 / 40.0
    ok &= res.epochs_required is None

    res = accuracy_schedule(0.1, 10.0, 9, 100, bound_b=2.0)
    ok &= res.delta == 0.1 / 30.0 and res.eta == 0.1 ** 1.5 / 270.0
    ok &= res.epochs_required == 291_600_000

    res = accuracy_schedule(2.0, 0.5, 16, 4)
    ok &= res.delta == 1.0 and res.eta == 2.0 ** 1.5 / 128.0

    res = accuracy_schedule(0.25, 4.0, 2, 1000, bound_b=0.5)
    ok &= res.delta == 0.25 / (4.0 * math.sqrt(2.0))
    ok &= res.eta == 0.125 / (2.0 ** 1.5 * math.sqrt(1000.0))
    ok &= res.epochs_required == 2048

    bound = schedule_bound_constant(1.0, 0.5, 2.0, 3.0, 0.2)
    ok &= bound == 72.82
    ok &= accuracy_schedule(1.0, 1.0, 1, 1, bound_b=bound).epochs_required == 5303

    _verdict(10, "schedule calculator", ok,
             "five substitutions plus the derived bound constant, all exact",
             started)
