"""Experiment harness checks: config parsing, the run driver's artifact
layout and determinism, summary statistics, and the command line."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import dirmarl.experiments
import dirmarl.learner
from dirmarl.cli import main
from dirmarl.configio import (_KEYS, ConfigError, ExperimentConfig, PolicySettings,
                              load_config, load_graph_file, parse_edge_list)
from dirmarl.experiments import (CSV_MAGIC, read_run_csv, run_experiment,
                                 run_file_name, summarize, write_run_csv)
from dirmarl.graphs import build_artifacts, build_graph
from dirmarl.learner import (EpisodeRecord, LearnerConfig, MessageBus,
                             TrainingDiverged, train)
from dirmarl.policy import BlockLayout
from dirmarl.warehouse import RolloutError, WarehouseConfig, simulate_rollout

from helpers import (draw_streams, example2_expected_learning_edges, learning_edge_set,
                     load_parameters)

CONFIG_DIR = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, "configs"))


def write_config(tmp_path, text, name="exp.cfg") -> str:
    path = str(tmp_path / name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def tiny_config(tmp_path, out, *, epochs=2, repeats=2,
                algorithms="distributed_one_point", extra="", name="exp.cfg") -> str:
    # 3-cycle: one cluster, every agent reaches every other; horizon 8
    # so stocks actually backlog and rewards are nonzero
    return write_config(tmp_path, f"""
[graph]
num_agents = 3
edges = 1->2, 2->3, 3->1

[learner]
epochs = {epochs}
horizon = 8

[experiment]
algorithms = {algorithms}
repeats = {repeats}
master_seed = 7
output_dir = {out}
{extra}
""", name=name)


# -- bundled configs ---------------------------------------------------


def test_bundled_nine_agent_config():
    cfg = load_config(os.path.join(CONFIG_DIR, "example1.cfg"))
    assert cfg.graph.num_agents == 9
    assert cfg.epochs == 600
    assert cfg.horizon == 8
    assert cfg.repeats == 10
    assert len(cfg.algorithms) == 4
    arts = build_artifacts(cfg.graph)
    clusters = {frozenset(c) for c in arts.clusters.clusters}
    assert clusters == {frozenset({1, 2}), frozenset({3, 4}),
                        frozenset({5, 6}), frozenset({7, 8, 9})}


def test_bundled_hundred_agent_config():
    cfg = load_config(os.path.join(CONFIG_DIR, "example2.cfg"))
    assert cfg.graph.num_agents == 100
    expected = {(1, 100)}
    for i in range(1, 100, 2):
        expected.add((i, i + 1))
        if i > 1:
            expected.add((i, i - 1))
    assert set(cfg.graph.edges) == expected
    arts = build_artifacts(cfg.graph)
    assert learning_edge_set(arts.learning) == example2_expected_learning_edges()
    assert set(cfg.algorithms) == {"distributed_one_point", "centralized_one_point"}


def test_config_defaults(tmp_path):
    path = write_config(tmp_path, "[graph]\nnum_agents = 2\nedges = 1->2, 2->1\n")
    cfg = load_config(path)
    assert cfg.delta == 0.1
    assert cfg.eta == 0.01
    assert (cfg.epochs, cfg.horizon, cfg.discount) == (600, 8, 1.0)
    assert cfg.repeats == 10
    assert cfg.master_seed == 0
    assert cfg.output_dir == "runs"
    assert len(cfg.algorithms) == 4
    assert cfg.policy.num_centers == 4
    assert cfg.policy.kernel == "squared"
    assert cfg.warehouse.demand_amplitude == 0.2
    echo = cfg.echo()
    assert echo["graph"]["num_agents"] == 2
    assert echo["learner"]["delta"] == 0.1
    assert echo["experiment"]["repeats"] == 10


SETUP_SCRIPT = """\
import sys
from dirmarl import RbfPolicy, WarehouseEnv, build_artifacts, load_config
from dirmarl.learner import MessageBus
cfg = load_config(sys.argv[1])
MessageBus(build_artifacts(cfg.graph).learning)
WarehouseEnv(cfg.warehouse)
p = cfg.policy
RbfPolicy(cfg.graph, num_centers=p.num_centers, stock_range=p.stock_range,
          demand_range=p.demand_range, kernel=p.kernel)
print("numpy.ma" in sys.modules)
"""


def test_setup_never_imports_numpy_ma():
    # numpy.ma takes about 16 ms to import and np.unique imports it;
    # a sort plus a np.diff mask deduplicates without it
    src = os.path.dirname(os.path.dirname(dirmarl.experiments.__file__))
    out = subprocess.run([sys.executable, "-c", SETUP_SCRIPT,
                          os.path.join(CONFIG_DIR, "example2.cfg")],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


@pytest.mark.parametrize("name", ["example1.cfg", "example2.cfg"])
def test_graph_echo_is_sorted_and_reloads(tmp_path, name):
    cfg = load_config(os.path.join(CONFIG_DIR, name))
    echo = cfg.echo()["graph"]
    pairs = parse_edge_list(echo["edges"], "echo")
    assert pairs == sorted(cfg.graph.edges)
    path = write_config(tmp_path, f"[graph]\nnum_agents = {echo['num_agents']}\n"
                                  f"edges = {echo['edges']}\n")
    assert load_config(path).graph == cfg.graph


def test_config_amplitude_list_and_inline_comments(tmp_path):
    path = write_config(tmp_path, """
[graph]
num_agents = 2
edges = 1->2, 2->1

[environment]
demand_amplitude = 0.1, 0.3  ; per-agent peaks
""")
    cfg = load_config(path)
    assert cfg.warehouse.demand_amplitude == (0.1, 0.3)


# -- config error reporting --------------------------------------------


def test_missing_num_agents_is_named(tmp_path):
    path = write_config(tmp_path, "[graph]\nedges = 1->2\n")
    with pytest.raises(ConfigError, match="num_agents"):
        load_config(path)


def test_unknown_key_is_named(tmp_path):
    path = write_config(tmp_path,
                        "[graph]\nnum_agents = 2\nedges = 1->2\n"
                        "[learner]\nalpha = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'alpha'"):
        load_config(path)


def test_unknown_section_is_named(tmp_path):
    path = write_config(tmp_path,
                        "[graph]\nnum_agents = 2\nedges = 1->2\n[misc]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[misc\]"):
        load_config(path)


def test_unknown_algorithm_is_named(tmp_path):
    path = write_config(tmp_path,
                        "[graph]\nnum_agents = 2\nedges = 1->2\n"
                        "[experiment]\nalgorithms = distributed_one_point dist_one\n")
    with pytest.raises(ConfigError, match="unknown algorithm 'dist_one'"):
        load_config(path)


def test_demand_amplitude_range_checked_at_load(tmp_path):
    path = write_config(tmp_path,
                        "[graph]\nnum_agents = 2\nedges = 1->2\n"
                        "[environment]\ndemand_amplitude = 1.5\n")
    with pytest.raises(ConfigError, match="demand amplitude"):
        load_config(path)


@pytest.mark.parametrize("key", ["stock_range", "demand_range"])
def test_inverted_policy_range_is_named(tmp_path, key):
    path = write_config(tmp_path,
                        "[graph]\nnum_agents = 2\nedges = 1->2\n"
                        f"[policy]\n{key} = 2 -1\n")
    with pytest.raises(ConfigError, match=f"{key} must be an increasing pair"):
        load_config(path)
    equal = write_config(tmp_path, f"[graph]\nnum_agents = 2\nedges = 1->2\n"
                                   f"[policy]\n{key} = 0.5 0.5\n", name="equal.cfg")
    with pytest.raises(ConfigError, match=key):
        load_config(equal)


_FLOAT_KEYS = [("environment", key) for key in (
    "initial_stock_mean", "initial_stock_jitter", "demand_amplitude", "demand_noise_std")] + [
    ("learner", key) for key in ("delta", "eta", "discount")]


@pytest.mark.parametrize("section, key, value", [
    *[(section, key, value) for section, key in _FLOAT_KEYS
      for value in ("nan", "inf", "-inf", "1e309")],
    *[("policy", key, pair) for key in ("stock_range", "demand_range")
      for pair in ("nan 1", "0 inf", "-inf 0", "0 1e309")]])
def test_non_finite_number_is_named(tmp_path, section, key, value):
    path = write_config(tmp_path, "[graph]\nnum_agents = 2\nedges = 1->2\n"
                                  f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
        load_config(path)


@pytest.mark.parametrize("section, key, value", [
    ("experiment", "repeats", "0"), ("policy", "num_centers", "0"),
    ("learner", "delta", "0"), ("policy", "kernel", "cubic")])
def test_out_of_range_value_names_the_file(tmp_path, section, key, value):
    path = write_config(tmp_path, "[graph]\nnum_agents = 2\nedges = 1->2\n"
                                  f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"^{path}: {key} must"):
        load_config(path)


@pytest.mark.parametrize("value", ["", ",", " , ", "# only a comment"])
def test_empty_amplitude_names_the_key(tmp_path, value):
    path = write_config(tmp_path, "[graph]\nnum_agents = 2\nedges = 1->2\n"
                                  f"[environment]\ndemand_amplitude = {value}\n")
    with pytest.raises(ConfigError, match=f"^{path}: demand_amplitude must be one number"):
        load_config(path)


@pytest.mark.parametrize("section, key", [
    (section, key) for section, keys in _KEYS.items() if section != "graph" for key in keys])
@pytest.mark.parametrize("value", ["", ","])
def test_empty_value_loads_or_names_the_key(tmp_path, section, key, value):
    path = write_config(tmp_path, "[graph]\nnum_agents = 2\nedges = 1->2\n"
                                  f"[{section}]\n{key} = {value}\n")
    try:
        load_config(path)
    except ConfigError as exc:
        assert str(exc).startswith(f"{path}: {key}"), str(exc)


def test_disconnected_graph_rejected_with_components(tmp_path):
    path = write_config(tmp_path,
                        "[graph]\nnum_agents = 4\nedges = 1->2, 3->4\n")
    with pytest.raises(ConfigError, match="not weakly connected"):
        load_config(path)


def test_too_few_edges_fail_before_the_graph_is_built(tmp_path):
    # A billion agents would exhaust memory if the graph were built.
    gpath = str(tmp_path / "huge.txt")
    with open(gpath, "w", encoding="utf-8") as fh:
        fh.write("agents 1000000000\n1 2\n")
    started = time.perf_counter()
    with pytest.raises(ConfigError, match=r"huge\.txt:1: .*1000000000 agents need at "
                                          r"least 999999999 edges, got 1$"):
        load_graph_file(gpath)
    assert time.perf_counter() - started < 1.0


def test_disconnection_message_is_capped(tmp_path):
    # A 21-agent clique has enough edges for 200 agents, but leaves 179
    # of them isolated.
    clique = [(i, j) for i in range(1, 22) for j in range(1, 22) if i != j]
    path = write_config(tmp_path, "[graph]\nnum_agents = 200\nedges = "
                        + ", ".join(f"{i}->{j}" for i, j in clique) + "\n")
    with pytest.raises(ConfigError, match="180 components") as info:
        load_config(path)
    assert len(str(info.value)) < 400


def test_malformed_edge_token():
    with pytest.raises(ConfigError, match="is not of the form 1->2"):
        parse_edge_list("1->2, 3-4", "inline")


def test_invalid_epoch_count(tmp_path):
    path = write_config(tmp_path,
                        "[graph]\nnum_agents = 2\nedges = 1->2\n"
                        "[learner]\nepochs = 0\n")
    with pytest.raises(ConfigError, match="epochs and horizon"):
        load_config(path)


def test_graph_file_round_trip_and_errors(tmp_path):
    gpath = str(tmp_path / "g.txt")
    with open(gpath, "w", encoding="utf-8") as fh:
        fh.write("# ring of three\nagents 3\n\n1 2\n2 3  # forward\n3 1\n")
    g = load_graph_file(gpath)
    assert g.num_agents == 3
    assert set(g.edges) == {(1, 2), (2, 3), (3, 1)}

    bad = str(tmp_path / "bad.txt")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("nodes 3\n")
    with pytest.raises(ConfigError, match=r"bad\.txt:1: expected 'agents N'"):
        load_graph_file(bad)

    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("agents 3\n1 2 3\n")
    with pytest.raises(ConfigError, match=r":2: expected 'source target'"):
        load_graph_file(bad)

    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("# nothing here\n")
    with pytest.raises(ConfigError, match="empty graph file"):
        load_graph_file(bad)

    with pytest.raises(ConfigError, match="cannot read graph file"):
        load_graph_file(str(tmp_path / "absent.txt"))


def test_graph_file_resolved_relative_to_config(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    with open(sub / "g.txt", "w", encoding="utf-8") as fh:
        fh.write("agents 2\n1 2\n2 1\n")
    path = write_config(sub, "[graph]\nfile = g.txt\n")
    cfg = load_config(path)
    assert cfg.graph.num_agents == 2


def test_config_rejects_mismatched_graph_objects():
    g1 = build_graph(2, [(1, 2), (2, 1)])
    g2 = build_graph(2, [(1, 2), (2, 1)])
    with pytest.raises(ConfigError, match="same object"):
        ExperimentConfig(graph=g1, warehouse=WarehouseConfig(graph=g2),
                         policy=PolicySettings())


# -- run driver ---------------------------------------------------------


def test_run_experiment_artifacts(tmp_path):
    out = str(tmp_path / "out")
    cfg = load_config(tiny_config(
        tmp_path, out, epochs=3,
        algorithms="distributed_one_point centralized_two_point"))
    summary = run_experiment(cfg)

    for alg in cfg.algorithms:
        for r in range(cfg.repeats):
            table = read_run_csv(os.path.join(out, run_file_name(alg, r)))
            assert table.epochs.tolist() == [0, 1, 2]
            assert table.values.shape == (3, 3)
            assert table.grad_norms.shape == (3, 3)
            # 3-cycle routing graph has all 6 ordered pairs
            assert table.messages.tolist() == [6, 6, 6]
            assert np.isfinite(table.global_values).all()

    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["format"] == "dirmarl manifest v1"
    assert manifest["config"]["learner"]["epochs"] == 3
    assert manifest["repeats_run"] == [0, 1]
    assert manifest["aborted"] == []

    with open(os.path.join(out, "summary.csv"), encoding="utf-8") as fh:
        assert fh.readline().strip() == "algorithm,epoch,mean_value,std_value"
    assert summary.num_epochs == 3
    assert not os.path.exists(os.path.join(out, "checkpoints"))
    for alg in cfg.algorithms:
        assert list(summary.executed[alg]) == [0, 1]
        assert np.isfinite(summary.final_mean(alg))


def test_rerun_is_byte_identical(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    cfg = load_config(tiny_config(tmp_path, out1, epochs=3))
    run_experiment(cfg)
    run_experiment(replace(cfg, output_dir=out2))
    for name in sorted(os.listdir(out1)):
        if name == "manifest.json":
            continue  # wall clock differs
        with open(os.path.join(out1, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(out2, name), "rb") as fh:
            second = fh.read()
        assert first == second, name
    with open(os.path.join(out1, "manifest.json"), encoding="utf-8") as fh:
        m1 = json.load(fh)
    with open(os.path.join(out2, "manifest.json"), encoding="utf-8") as fh:
        m2 = json.load(fh)
    m1.pop("wall_clock_seconds"), m2.pop("wall_clock_seconds")
    m1["config"]["experiment"].pop("output_dir")
    m2["config"]["experiment"].pop("output_dir")
    assert m1 == m2


def test_partial_rerun_reproduces_single_repeat(tmp_path):
    out_full = str(tmp_path / "full")
    out_part = str(tmp_path / "part")
    cfg = load_config(tiny_config(tmp_path, out_full, repeats=3))
    run_experiment(cfg)
    name = run_file_name("distributed_one_point", 1)
    with open(os.path.join(out_full, name), "rb") as fh:
        full = fh.read()

    # a repeated index runs once
    for indices in ([1], [1, 1]):
        summary = run_experiment(replace(cfg, output_dir=out_part), repeat_indices=indices)
        with open(os.path.join(out_part, name), "rb") as fh:
            assert fh.read() == full
        with open(os.path.join(out_part, "manifest.json"), encoding="utf-8") as fh:
            assert json.load(fh)["repeats_run"] == [1]
        assert summary.executed == {"distributed_one_point": (1,)}
        assert summary.total_messages == summarize(out_part).total_messages == {
            "distributed_one_point": cfg.epochs * 6}

    with pytest.raises(ValueError, match="outside 0..2"):
        run_experiment(cfg, repeat_indices=[3])


def test_message_bus_built_once_per_experiment(tmp_path, monkeypatch):
    built = []

    class CountingBus(dirmarl.experiments.MessageBus):
        def __init__(self, learning):
            built.append(learning)
            super().__init__(learning)

    monkeypatch.setattr(dirmarl.experiments, "MessageBus", CountingBus)
    out = str(tmp_path / "out")
    cfg = load_config(tiny_config(
        tmp_path, out, epochs=2, repeats=3,
        algorithms="distributed_one_point centralized_two_point"))
    summary = run_experiment(cfg)
    assert len(built) == 1
    # 3-cycle: 6 routing edges, one message each per episode
    assert summary.total_messages == summarize(out).total_messages == {
        alg: 3 * cfg.epochs * 6 for alg in cfg.algorithms}


def test_checkpoints_written_and_loadable(tmp_path):
    out = str(tmp_path / "out")
    cfg = load_config(tiny_config(tmp_path, out, epochs=5, repeats=1,
                                  extra="checkpoint_every = 2"))
    run_experiment(cfg)
    ckpt = os.path.join(out, "checkpoints")
    names = sorted(os.listdir(ckpt))
    assert names == [f"distributed_one_point.rep000.ep{k:05d}.npz" for k in (2, 4, 5)]
    theta, epoch = load_parameters(os.path.join(ckpt, names[-1]))
    assert epoch == 5
    assert theta.ndim == 1 and np.isfinite(theta).all()
    earlier, _ = load_parameters(os.path.join(ckpt, names[0]))
    assert not np.array_equal(theta, earlier)


def test_aborted_runs_recorded_and_rest_continue(tmp_path):
    # A single agent routes everything to itself, so its trajectory is
    # parameter-independent: the two-point difference is exactly zero
    # and survives any step size, while the one-point estimate overflows
    # immediately.
    out = str(tmp_path / "out")
    path = write_config(tmp_path, f"""
[graph]
num_agents = 1
edges =

[learner]
eta = 1e308
epochs = 2
horizon = 8

[experiment]
algorithms = distributed_two_point distributed_one_point
repeats = 2
master_seed = 3
output_dir = {out}
""")
    summary = run_experiment(load_config(path))
    assert {(a, r) for a, r, _ in summary.aborted} == {
        ("distributed_one_point", 0), ("distributed_one_point", 1)}
    for _, _, reason in summary.aborted:
        assert "non-finite" in reason
    assert set(summary.mean_value) == {"distributed_two_point"}
    for r in range(2):
        assert os.path.exists(os.path.join(out, run_file_name("distributed_two_point", r)))
        assert not os.path.exists(os.path.join(out, run_file_name("distributed_one_point", r)))
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        assert len(json.load(fh)["aborted"]) == 2

    again = summarize(out)
    assert set(again.mean_value) == {"distributed_two_point"}
    np.testing.assert_allclose(again.mean_value["distributed_two_point"],
                               summary.mean_value["distributed_two_point"])
    # the driver and the read-back build one summary: no message total
    # for the algorithm that completed no repeat
    assert summary.total_messages == again.total_messages == {"distributed_two_point": 0}
    assert summary.executed == again.executed == {"distributed_two_point": (0, 1)}
    assert summary.aborted == again.aborted


def test_failing_rollouts_are_recorded_and_the_batch_completes(tmp_path, capsys, monkeypatch):
    # Stocks near the float limit overflow the allocation scores of every
    # run; the batch still writes its summary and manifest and names the
    # cause of each abort.
    out = str(tmp_path / "out")
    path = write_config(tmp_path, f"""
[graph]
num_agents = 2
edges = 1->2, 2->1

[environment]
initial_stock_mean = 1e308

[learner]
epochs = 2
horizon = 4

[experiment]
algorithms = distributed_one_point centralized_two_point
repeats = 2
output_dir = {out}
""")
    assert main(["run", path]) == 0
    assert capsys.readouterr().out.count("aborted: ") == 4
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        aborted = json.load(fh)["aborted"]
    assert {(a, r) for a, r, _ in aborted} == {
        (a, r) for a in ("distributed_one_point", "centralized_two_point") for r in (0, 1)}
    for _, _, reason in aborted:
        assert reason == "NonFiniteScores: non-finite allocation scores for agents [1, 2]"
    again = summarize(out)
    assert again.mean_value == {} and len(again.aborted) == 4

    # A rollout abort takes out only its own run.
    out2 = str(tmp_path / "out2")
    calls = []

    def first_rollout_aborts(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RolloutError("non-finite stock for agents [1] after step 0")
        return simulate_rollout(*args, **kwargs)

    monkeypatch.setattr(dirmarl.learner, "simulate_rollout", first_rollout_aborts)
    summary = run_experiment(load_config(tiny_config(
        tmp_path, out2, algorithms="distributed_one_point centralized_one_point")))
    assert summary.aborted == (("distributed_one_point", 0,
                                "RolloutError: non-finite stock for agents [1] after step 0"),)
    assert summary.executed == {"distributed_one_point": (1,), "centralized_one_point": (0, 1)}
    assert summarize(out2).executed == summary.executed

    # Any other error is a bug and stops the batch.
    def broken_rollout(*args, **kwargs):
        raise ValueError("noise trace demand shocks have shape (3, 2)")

    monkeypatch.setattr(dirmarl.learner, "simulate_rollout", broken_rollout)
    with pytest.raises(ValueError, match="noise trace"):
        run_experiment(load_config(tiny_config(tmp_path, str(tmp_path / "out3"))))


class _OverflowingEvaluator:
    """Stands in for a rollout evaluator whose scores overflow once the
    parameters run away, mimicking the policy's non-finite guard."""

    def __init__(self, graph, blowup: float):
        self.num_agents = graph.num_agents
        self.blowup = blowup
        self.layout = BlockLayout((2,) * graph.num_agents)

    def draw_noise(self, rng):
        return None

    def evaluate(self, theta, noise):
        if np.abs(theta).max() > self.blowup:
            raise ValueError("allocation scores are not finite")
        return np.full(self.num_agents, -1.0)


def test_runaway_evaluation_becomes_divergence():
    g = build_graph(2, [(1, 2), (2, 1)])
    arts = build_artifacts(g)
    ev = _OverflowingEvaluator(g, blowup=1e200)
    cfg = LearnerConfig(step_size=1e205, delta=0.5)
    theta0 = np.zeros(ev.layout.total_dim)
    with pytest.raises(TrainingDiverged, match="evaluation failed at epoch 1"):
        train(theta0, ev, cfg, MessageBus(arts.learning),
              *draw_streams(ev, 3, np.random.default_rng(0)))

    # at sane parameter scales the same failure is a real bug and
    # propagates untouched
    ev_bug = _OverflowingEvaluator(g, blowup=-1.0)
    cfg_small = LearnerConfig(step_size=0.1, delta=0.5)
    with pytest.raises(ValueError) as excinfo:
        train(theta0, ev_bug, cfg_small, MessageBus(arts.learning),
              *draw_streams(ev_bug, 2, np.random.default_rng(0)))
    assert not isinstance(excinfo.value, TrainingDiverged)


# -- summaries and run CSVs ---------------------------------------------


def test_summarize_matches_driver(tmp_path):
    out = str(tmp_path / "out")
    cfg = load_config(tiny_config(
        tmp_path, out, epochs=4,
        algorithms="distributed_one_point centralized_one_point"))
    direct = run_experiment(cfg)
    again = summarize(out)
    assert again.algorithms == direct.algorithms
    assert again.num_epochs == direct.num_epochs
    for alg in cfg.algorithms:
        np.testing.assert_allclose(again.mean_value[alg], direct.mean_value[alg])
        np.testing.assert_allclose(again.std_value[alg], direct.std_value[alg])
        assert again.total_messages[alg] == direct.total_messages[alg]


def test_summarize_reports_missing_pieces(tmp_path):
    out = str(tmp_path / "out")
    cfg = load_config(tiny_config(tmp_path, out))
    run_experiment(cfg)
    victim = run_file_name("distributed_one_point", 1)
    os.remove(os.path.join(out, victim))
    with pytest.raises(ValueError, match=f"missing runs: {victim}"):
        summarize(out)

    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="manifest.json"):
        summarize(str(empty))


def _rewrite_manifest(out, change):
    path = os.path.join(out, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    change(manifest)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return path


def test_summarize_names_a_manifest_without_config(tmp_path):
    out = str(tmp_path / "out")
    run_experiment(load_config(tiny_config(tmp_path, out)))
    path = _rewrite_manifest(out, lambda m: m.pop("config"))
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: config.experiment.algorithms "
                                         "is missing$"):
        summarize(out)


def test_summarize_names_a_string_algorithm_list(tmp_path):
    out = str(tmp_path / "out")
    run_experiment(load_config(tiny_config(tmp_path, out)))
    path = _rewrite_manifest(
        out, lambda m: m["config"]["experiment"].update(algorithms="distributed_one_point"))
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: config.experiment.algorithms "
                                         "must be a non-empty list of names"):
        summarize(out)


def test_summarize_checks_every_manifest_key_it_reads(tmp_path):
    out = str(tmp_path / "out")
    run_experiment(load_config(tiny_config(tmp_path, out)))
    path = os.path.join(out, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        clean = fh.read()
    for key, value in (("config.experiment.algorithms", ["federated_one_point"]),
                       ("config.experiment.repeats", "2"),
                       ("config.experiment.repeats", 0),
                       ("config.learner.epochs", 2.0),
                       ("repeats_run", [0, 2]),
                       ("repeats_run", 0),
                       ("aborted", [["distributed_one_point", 0]])):
        def change(m, key=key, value=value):
            *parents, last = key.split(".")
            for part in parents:
                m = m[part]
            m[last] = value

        _rewrite_manifest(out, change)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: {re.escape(key)} must be "):
            summarize(out)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(clean)
    summarize(out)


def _damage_run_csvs(out, damage):
    """Rewrite every run CSV in ``out`` as ``damage(lines)``."""
    for name in os.listdir(out):
        if name.endswith(".csv") and name != "summary.csv":
            path = os.path.join(out, name)
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(damage(lines)) + "\n")


def test_summarize_rejects_runs_missing_their_last_row(tmp_path):
    out = str(tmp_path / "out")
    run_experiment(load_config(tiny_config(tmp_path, out, epochs=3)))
    _damage_run_csvs(out, lambda lines: lines[:-1])
    with pytest.raises(ValueError, match=r"rep000\.csv: rows must be the manifest's "
                                         r"epochs 0\.\.2 in order, got 2 rows"):
        summarize(out)


def test_summarize_names_a_ragged_row(tmp_path, capsys):
    out = str(tmp_path / "out")
    run_experiment(load_config(tiny_config(tmp_path, out, epochs=3)))
    _damage_run_csvs(out, lambda lines: lines[:3] + [lines[3] + ",0"] + lines[4:])
    with pytest.raises(ValueError, match=r"rep000\.csv:4: 10 cells, the header has 9"):
        summarize(out)

    # a header that is not the writer's columns for its agent count,
    # with rows that match it cell for cell
    out = str(tmp_path / "header")
    run_experiment(load_config(tiny_config(tmp_path, out, epochs=3)))
    _damage_run_csvs(out, lambda lines: lines[:1] + ["epoch,value_1,value_2,global_value,messages"]
                     + [",".join(ln.split(",")[:5]) for ln in lines[2:]])
    with pytest.raises(ValueError, match=r"rep000\.csv:2: header is not the run csv columns "
                                         r"for 2 agents"):
        summarize(out)
    assert main(["summarize", out]) == 2
    assert "rep000.csv:2: header" in capsys.readouterr().err


def test_summarize_names_a_non_numeric_cell(tmp_path):
    out = str(tmp_path / "out")
    run_experiment(load_config(tiny_config(tmp_path, out, epochs=3)))
    _damage_run_csvs(out, lambda lines: lines[:4] + ["abc" + lines[4][1:]])
    with pytest.raises(ValueError, match=r"rep000\.csv:5: .*'abc'"):
        summarize(out)

    # a byte that is not UTF-8
    path = os.path.join(out, run_file_name("distributed_one_point", 0))
    with open(path, "ab") as fh:
        fh.write(b"0,\xff\n")
    with pytest.raises(ValueError, match=f"^{re.escape(path)} is not UTF-8 text: "):
        summarize(out)


def test_summary_statistics_hand_check(tmp_path):
    out = str(tmp_path / "out")
    cfg = load_config(tiny_config(tmp_path, out))
    run_experiment(cfg)

    def rows(value):
        return [EpisodeRecord(epoch=k,
                              observed_values=np.full(3, value / 3.0),
                              local_values=np.full(3, value),
                              global_value=value,
                              gradient_norms=np.zeros(3),
                              message_count=6) for k in range(2)]

    write_run_csv(os.path.join(out, run_file_name("distributed_one_point", 0)),
                  rows(0.0), 3)
    write_run_csv(os.path.join(out, run_file_name("distributed_one_point", 1)),
                  rows(2.0), 3)
    summary = summarize(out)
    alg = "distributed_one_point"
    np.testing.assert_allclose(summary.mean_value[alg], [1.0, 1.0])
    np.testing.assert_allclose(summary.std_value[alg], np.sqrt(2.0))
    assert summary.final_mean(alg) == 1.0
    assert summary.tail_std(alg) == pytest.approx(np.sqrt(2.0))
    assert summary.total_messages[alg] == 24


def test_run_csv_round_trip_is_exact(tmp_path):
    path = str(tmp_path / "run.csv")
    values = np.array([1.0 / 3.0, -0.0, 5.0e-324])
    rec = EpisodeRecord(epoch=0, observed_values=values,
                        local_values=values, global_value=float(values.sum()),
                        gradient_norms=np.array([np.pi, 1e17, 2.0 / 7.0]),
                        message_count=4)
    write_run_csv(path, [rec], 3)
    table = read_run_csv(path)
    assert table.values[0].tolist() == values.tolist()
    assert table.grad_norms[0].tolist() == rec.gradient_norms.tolist()
    assert table.global_values[0] == rec.global_value

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,value\n0,1\n")
    with pytest.raises(ValueError, match="not a dirmarl run csv"):
        read_run_csv(path)


# -- command line --------------------------------------------------------


def test_cli_schedule_exact_values(capsys):
    assert main(["schedule", "--eps", "1", "--lip", "1",
                 "--dim", "1", "--epochs", "1"]) == 0
    out = capsys.readouterr().out
    assert "delta = 1\n" in out
    assert "eta = 1\n" in out
    assert "epochs_required" not in out


def test_cli_schedule_epoch_requirement(capsys):
    assert main(["schedule", "--eps", "0.5", "--lip", "1", "--dim", "2",
                 "--epochs", "1", "--bound-b", "1"]) == 0
    out = capsys.readouterr().out
    assert "epochs_required = 256\n" in out
    assert "below the guarantee threshold" in out

    assert main(["schedule", "--eps", "1", "--lip", "1", "--dim", "1",
                 "--epochs", "1", "--value-max", "1"]) == 0
    out = capsys.readouterr().out
    # derived bound: 0 - 0 + 1 * (1 + 0) / 2, so one epoch suffices
    assert "epochs_required = 1\n" in out
    assert "below the guarantee threshold" not in out

    # non-finite input, and a requirement or bound constant that overflows
    # or divides by an underflowed eps^5, exits 2 with a named cause
    base = ["schedule", "--dim", "2", "--epochs", "1"]
    for extra, cause in ((["--eps", "nan", "--lip", "1"], "eps must be finite, got nan"),
                         (["--eps", "1", "--lip", "1e-320"], "delta for eps 1.0"),
                         (["--eps", "0.5", "--lip", "1", "--bound-b", "inf"],
                          "bound_b must be finite"),
                         (["--eps", "0.5", "--lip", "1", "--bound-b", "1e200"],
                          "epoch requirement"),
                         (["--eps", "1e-80", "--lip", "1", "--bound-b", "1"],
                          "epoch requirement"),
                         (["--eps", "1", "--lip", "1", "--value-max", "1e100"],
                          "epoch requirement"),
                         (["--eps", "1", "--lip", "1", "--value-max", "1e200"],
                          "bound constant B"),
                         (["--eps", "1", "--lip", "1", "--value-max", "nan"],
                          "value_max must be finite")):
        assert main(base + extra) == 2, extra
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and cause in captured.err, extra


def test_cli_graph_describes_bundled_config(capsys):
    assert main(["graph", os.path.join(CONFIG_DIR, "example1.cfg")]) == 0
    out = capsys.readouterr().out
    assert "agents: 9" in out
    assert "clusters: 4" in out
    assert "centralized equivalent: no" in out


def test_cli_run_summarize_and_output_precedence(tmp_path, capsys, monkeypatch):
    cfg_out = str(tmp_path / "from_config")
    env_out = str(tmp_path / "from_env")
    flag_out = str(tmp_path / "from_flag")
    path = tiny_config(tmp_path, cfg_out)

    monkeypatch.setenv("DIRMARL_OUTPUT_DIR", env_out)
    assert main(["run", path]) == 0
    assert os.path.isdir(env_out)
    assert not os.path.exists(cfg_out)

    assert main(["run", path, "--output", flag_out, "--repeat", "1"]) == 0
    assert os.path.isdir(flag_out)
    assert os.path.exists(os.path.join(flag_out, run_file_name("distributed_one_point", 1)))
    assert not os.path.exists(os.path.join(flag_out, run_file_name("distributed_one_point", 0)))
    capsys.readouterr()

    monkeypatch.delenv("DIRMARL_OUTPUT_DIR")
    assert main(["summarize", env_out]) == 0
    out = capsys.readouterr().out
    assert "epochs: 2" in out
    assert "distributed_one_point: final value" in out


def test_cli_seed_override_changes_runs(tmp_path):
    out1 = str(tmp_path / "s1")
    out2 = str(tmp_path / "s2")
    path = tiny_config(tmp_path, out1, repeats=1)
    assert main(["run", path, "--output", out1]) == 0
    assert main(["run", path, "--output", out2, "--seed", "11"]) == 0
    name = run_file_name("distributed_one_point", 0)
    with open(os.path.join(out1, name), "rb") as fh:
        first = fh.read()
    with open(os.path.join(out2, name), "rb") as fh:
        second = fh.read()
    assert first != second


def test_cli_errors_exit_2(tmp_path, capsys):
    assert main(["graph", str(tmp_path / "absent.cfg")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = write_config(tmp_path, "[graph]\nedges = 1->2\n")
    assert main(["run", bad]) == 2
    assert "num_agents" in capsys.readouterr().err


def test_cli_run_output_over_a_file_exits_2(tmp_path, capsys):
    path = tiny_config(tmp_path, str(tmp_path / "out"))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["run", path, "--output", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {taken}: ")
    assert taken.read_text() == "not a directory\n"


def test_cli_run_bad_repeat_exits_2_and_creates_no_directory(tmp_path, capsys):
    path = tiny_config(tmp_path, str(tmp_path / "out"))
    out = tmp_path / "D"
    assert main(["run", path, "--output", str(out), "--repeat", "99"]) == 2
    assert "repeat index 99 outside" in capsys.readouterr().err
    assert not out.exists()


def test_cli_validate_json_in_missing_directory_exits_2_before_the_battery(
        tmp_path, capsys, monkeypatch):
    def battery(**kw):
        raise AssertionError("the battery ran before the --json path was checked")

    monkeypatch.setattr("dirmarl.cli.run_validation", battery)
    report = tmp_path / "absent" / "report.json"
    assert main(["validate", "--quick", "--json", str(report)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write --json {report}: its directory does not exist\n")
    assert not report.parent.exists()

    # an existing directory in place of the report file
    assert main(["validate", "--quick", "--json", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write --json {tmp_path}: it is a directory\n"


def test_cli_help_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--help"])
    assert excinfo.value.code == 0


def test_cli_validate_quick(tmp_path, capsys):
    report = str(tmp_path / "report.json")
    code = main(["validate", "--quick", "--json", report])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "checks passed" in out
    with open(report, encoding="utf-8") as fh:
        results = json.load(fh)
    assert results and all(r["passed"] for r in results)
