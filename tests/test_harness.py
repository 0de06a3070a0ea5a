"""Experiment harness checks: config parsing, the run driver's artifact
layout and determinism, summary statistics, and the command line."""

from __future__ import annotations

import configparser
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
import zlib
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import dirmarl.experiments
import dirmarl.graphs
import dirmarl.learner
from dirmarl.cli import main
from dirmarl.configio import (_KEYS, MAX_REPEAT_DOUBLES, ConfigError, ExperimentConfig,
                              load_config, load_graph_file, parse_edge_list)
from dirmarl.experiments import (_repeat_streams, read_run_csv, run_experiment, run_file_name,
                                 summarize, write_run_csv)
from dirmarl.graphs import build_artifacts, build_graph
from dirmarl.learner import LearnerConfig, MessageBus, TrainingDiverged, train
from dirmarl.oracles import sample_perturbation
from dirmarl.policy import BlockLayout, RbfPolicy
from dirmarl.validation import CheckResult
from dirmarl.warehouse import RolloutError, WarehouseConfig, WarehouseEnv, simulate_rollout

from helpers import (draw_streams, example2_expected_learning_edges, learning_edge_set,
                     reference_read_run_csv, run_table)

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
    # a key the environment no longer has is unknown, not ignored
    path = write_config(tmp_path,
                        "[graph]\nnum_agents = 2\nedges = 1->2\n"
                        "[environment]\nshared_demand_noise = false\n")
    with pytest.raises(ConfigError, match="unknown key 'shared_demand_noise'"):
        load_config(path)
    # so is a key the experiment no longer has
    path = write_config(tmp_path,
                        "[graph]\nnum_agents = 2\nedges = 1->2\n"
                        "[experiment]\ncheckpoint_every = 0\n")
    with pytest.raises(ConfigError,
                       match=r"unknown key 'checkpoint_every' in \[experiment\]"):
        load_config(path)


def test_readme_config_block_names_exactly_the_config_keys():
    readme = os.path.join(os.path.dirname(CONFIG_DIR), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"^## Config format\n.*?^```ini\n(.*?)^```$", text, re.S | re.M)
    assert block is not None, "README has no ini block under '## Config format'"
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(block.group(1))
    shown = {section: set(parser[section]) for section in parser.sections()}
    # the block shows [graph] file only as a comment, beside the inline edges
    want = {section: set(keys) - ({"file"} if section == "graph" else set())
            for section, keys in _KEYS.items()}
    assert shown == want


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


@pytest.mark.parametrize("key", ["initial_stock_mean", "initial_stock_jitter",
                                 "demand_amplitude", "demand_noise_std", "delta", "eta"])
def test_settings_built_in_code_reject_nan_by_name(key):
    # NaN fails every comparison, so each check is written to fail on it
    # too; a file cannot hold NaN, code can
    warehouse = WarehouseConfig(graph=build_graph(2, [(1, 2)]))
    with pytest.raises(ValueError, match=key):
        if key in ("delta", "eta"):
            ExperimentConfig(warehouse=warehouse, **{key: math.nan})
        else:
            replace(warehouse, **{key: math.nan})


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


def test_experiments_on_one_graph_derive_its_learning_graph_once(tmp_path, monkeypatch):
    derived = []
    derive = dirmarl.graphs.derive_learning_graph

    def counted(g, d):
        derived.append(g)
        return derive(g, d)

    build_artifacts.cache_clear()
    monkeypatch.setattr(dirmarl.graphs, "derive_learning_graph", counted)
    cfg = load_config(tiny_config(tmp_path, str(tmp_path / "out"), repeats=1))
    first = run_experiment(cfg)
    second = run_experiment(replace(cfg, output_dir=str(tmp_path / "again")))
    assert derived == [cfg.graph]
    assert second.total_messages == first.total_messages


class Torn:
    """A file that takes half of its first write and is then interrupted."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise KeyboardInterrupt


@pytest.mark.parametrize("k", [0, 1, 3])
def test_an_interrupted_batch_leaves_only_whole_run_csvs(tmp_path, monkeypatch, k):
    # KeyboardInterrupt half-way through the k-th lane's CSV write: the
    # lanes before it are on disk under their final names, byte-equal to
    # an uninterrupted run's, and nothing else is (no torn file, no
    # temporary, no summary or manifest)
    cfg = load_config(tiny_config(tmp_path, str(tmp_path / "whole"), epochs=3,
                                  algorithms="distributed_one_point centralized_one_point"))
    run_experiment(cfg)
    real_open, csv_writes = open, []

    def torn_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if "w" in mode and ".rep" in os.path.basename(path) and ".csv" in path:
            csv_writes.append(path)
            if len(csv_writes) == k + 1:
                return Torn(fh)
        return fh

    out = tmp_path / "torn"
    monkeypatch.setattr(dirmarl.experiments, "open", torn_open, raising=False)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(replace(cfg, output_dir=str(out)))
    monkeypatch.undo()
    lanes = [run_file_name(alg, r) for r in range(cfg.repeats) for alg in cfg.algorithms]
    assert sorted(os.listdir(out)) == sorted(lanes[:k])
    for name in lanes[:k]:
        assert np.array_equal(read_run_csv(str(out / name)).epochs, np.arange(cfg.epochs))
        assert (out / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


def test_a_repeats_streams_hold_only_their_doubles(tmp_path):
    # 3-agent chain, horizon 8, 4 centers, 10,000 epochs: one repeat's
    # probes and noise traces are two arrays of epochs x (d + (horizon +
    # 1) N) doubles, the streams that the config load sizes, drawn epoch
    # by epoch from the repeat's two spawned generators
    cfg = load_config(write_config(tmp_path, """
[graph]
num_agents = 3
edges = 1->2, 2->3

[policy]
num_centers = 4

[learner]
epochs = 10000
horizon = 8

[experiment]
master_seed = 3
output_dir = out
"""))
    env = WarehouseEnv(cfg.warehouse)
    layout = RbfPolicy(cfg.graph, **asdict(cfg.policy)).layout
    d = 4 * (3 + 2)
    assert layout.total_dim == d
    _repeat_streams(replace(cfg, epochs=1), env, layout, 1)  # one-time imports, not held
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        probes, traces = _repeat_streams(cfg, env, layout, 1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert probes.shape == (10_000, d) and traces.shape == (10_000, 9, 3)
    assert held <= 1.05 * 8 * 10_000 * (d + 9 * 3) + 4096
    pert_seq, noise_seq = np.random.SeedSequence(3).spawn(2)[1].spawn(2)
    pert_rng, noise_rng = np.random.default_rng(pert_seq), np.random.default_rng(noise_seq)
    probe_rows = [sample_perturbation(layout, pert_rng) for _ in range(10_000)]
    trace_rows = [env.draw_noise_trace(8, noise_rng) for _ in range(10_000)]
    assert probes.tobytes() == np.array(probe_rows).tobytes()
    assert traces.tobytes() == np.array(trace_rows).tobytes()


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
    # repeat 0 overflows its parameters; repeat 1's huge but finite step
    # overflows the next evaluation's scores, which is divergence too
    causes = {r: reason for _, r, reason in summary.aborted}
    assert causes[0].startswith("TrainingDiverged: non-finite parameters")
    assert causes[1].startswith("TrainingDiverged: evaluation failed at epoch 1")
    assert causes[1].endswith("non-finite allocation scores for agents [1]")
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
        raise ValueError("noise trace has shape (3, 2), expected (T + 1, 3)")

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
    with pytest.raises(ValueError, match=f"missing runs: {victim}$"):
        summarize(out)
    # every absent run is listed, not only the first
    first = run_file_name("distributed_one_point", 0)
    os.remove(os.path.join(out, first))
    with pytest.raises(ValueError, match=f"missing runs: {first}, {victim}$"):
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


def test_summarize_rejects_a_repeated_algorithm(tmp_path):
    # the config loader refuses an algorithm listed twice; a manifest
    # that lists one twice would report it twice
    out = str(tmp_path / "out")
    run_experiment(load_config(tiny_config(tmp_path, out)))
    path = _rewrite_manifest(out, lambda m: m["config"]["experiment"].update(
        algorithms=["distributed_one_point", "distributed_one_point"]))
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: config.experiment.algorithms "
                                         "must be a non-empty list of names .*, each once"):
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
                       ("aborted", [["distributed_one_point", 0]]),
                       ("run_csv_checksums", {"distributed_one_point.rep000.csv": [1, -1]}),
                       ("run_csv_checksums", {"distributed_one_point.rep000.csv": [2 ** 32, 9]}),
                       ("run_csv_checksums", [[1, 9]])):
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
    want = summarize(out).report()
    # an echo key summarize does not read is ignored, such as the
    # checkpoint_every that run directories of older versions hold
    _rewrite_manifest(out, lambda m: m["config"]["experiment"].update(checkpoint_every=0))
    assert summarize(out).report() == want


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

    # a non-finite value and a fractional message count, both of which
    # float() parses
    def set_cell(col, text):
        def damage(lines):
            cells = lines[3].split(",")
            cells[col] = text
            return lines[:3] + [",".join(cells)] + lines[4:]
        return damage

    cases = ((4, "nan", "global_value must be finite, got nan"),
             (1, "-inf", "value_1 must be finite, got -inf"),
             (-1, "2.5", "messages must be a whole number, got '2.5'"),
             (0, "1.5", "epoch must be a whole number, got '1.5'"))
    for k, (col, text, want) in enumerate(cases):
        out = str(tmp_path / f"cell{k}")
        run_experiment(load_config(tiny_config(tmp_path, out, epochs=3)))
        _damage_run_csvs(out, set_cell(col, text))
        with pytest.raises(ValueError, match=r"rep000\.csv:4: " + re.escape(want) + "$"):
            summarize(out)

    # a byte that is not UTF-8
    path = os.path.join(out, run_file_name("distributed_one_point", 0))
    with open(path, "ab") as fh:
        fh.write(b"0,\xff\n")
    with pytest.raises(ValueError, match=f"^{re.escape(path)} is not UTF-8 text: "):
        summarize(out)

    # the reader against the reference row loop: the same doubles, or
    # the same error text (True: the file is accepted)
    out = str(tmp_path / "grammar")
    run_experiment(load_config(tiny_config(tmp_path, out, epochs=3)))
    path = os.path.join(out, run_file_name("distributed_one_point", 0))
    with open(path, encoding="utf-8") as fh:
        clean = fh.read().splitlines()
    cases = [(set_cell(col, text)(clean), accepted) for col, text, accepted in (
        (1, " 1.5", True), (1, "1.5 2", False), (4, "", False), (1, "1_0", True),
        (1, "\uff11", True), (1, "0x10", False), (4, "1e999", False), (1, "1\x1c", False),
        (0, "+3", False), (0, "\u0663", True))]
    nan_first = clean[2].split(",")
    nan_first[4] = "nan"
    cases += [(clean[:3] + [" \t "] + clean[3:], False),
              (clean[:3] + ["# a note"] + clean[3:], False),
              (clean[:2] + [ln + ",0" for ln in clean[2:]], False),
              # a nan on line 3 and a short line 5: the row error names line 5
              (clean[:2] + [",".join(nan_first), clean[3], clean[4].rpartition(",")[0]], False)]
    for lines, accepted in cases:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        assert _assert_reads_like_the_row_loop(path) == accepted, lines[3]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(clean) + "\r\n")
    assert _assert_reads_like_the_row_loop(path)


def _checksums(out):
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_csv_checksums"]


def test_read_run_csv_with_a_matching_checksum_parses_only_the_summary_columns(tmp_path):
    path = str(tmp_path / "run.csv")
    table = random_table(np.random.default_rng(5), 7)
    checksum = write_run_csv(path, table)
    with open(path, "rb") as fh:
        data = fh.read()
    assert checksum == [zlib.crc32(data), len(data)]
    fast, full = read_run_csv(path, checksum), read_run_csv(path)
    assert fast.values is None and fast.grad_norms is None
    for name in ("epochs", "global_values", "messages"):
        a, b = getattr(fast, name), getattr(full, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    # a checksum of other bytes reads the file in full
    for wrong in ([checksum[0] ^ 1, checksum[1]], [checksum[0], checksum[1] + 1]):
        assert read_run_csv(path, wrong).values.tobytes() == full.values.tobytes()

    # a table the full reader refuses gets no checksum
    for column, bad in (("grad_norms", np.nan), ("values", -np.inf), ("global_values", np.inf),
                        ("messages", -1), ("epochs", -1)):
        broken = getattr(table, column).copy()
        broken.flat[3] = bad
        assert write_run_csv(path, replace(table, **{column: broken})) is None, column


def test_summarize_reads_an_edited_run_in_full(tmp_path):
    # one per-agent cell edited after the run: the summary columns are
    # untouched, the bytes no longer match their checksum, and the full
    # parse names the cell as it does without a checksum
    out = str(tmp_path / "out")
    run_experiment(load_config(tiny_config(tmp_path, out, epochs=3)))
    path = os.path.join(out, run_file_name("distributed_one_point", 0))
    assert run_file_name("distributed_one_point", 0) in _checksums(out)

    def set_value_2(lines):
        cells = lines[3].split(",")
        cells[2] = "nan"
        return lines[:3] + [",".join(cells)] + lines[4:]

    _damage_run_csvs(out, set_value_2)
    with pytest.raises(ValueError) as without:
        read_run_csv(path)
    assert str(without.value) == f"{path}:4: value_2 must be finite, got nan"
    with pytest.raises(ValueError, match=f"^{re.escape(str(without.value))}$"):
        summarize(out)


def test_a_non_finite_run_gets_no_checksum_and_fails_summarize(tmp_path, monkeypatch):
    real_train = dirmarl.experiments.train

    def train_with_a_nan(*args, **kwargs):
        table, theta = real_train(*args, **kwargs)
        if not hasattr(train_with_a_nan, "done"):
            train_with_a_nan.done = True
            table.grad_norms[1, 0] = np.nan
        return table, theta

    out = str(tmp_path / "out")
    monkeypatch.setattr(dirmarl.experiments, "train", train_with_a_nan)
    run_experiment(load_config(tiny_config(tmp_path, out, epochs=3)))
    monkeypatch.undo()
    assert sorted(_checksums(out)) == [run_file_name("distributed_one_point", 1)]
    path = os.path.join(out, run_file_name("distributed_one_point", 0))
    with pytest.raises(ValueError, match=f"^{re.escape(path)}:4: grad_norm_1 must be finite, "
                                         "got nan$"):
        summarize(out)


def test_summary_statistics_hand_check(tmp_path):
    out = str(tmp_path / "out")
    cfg = load_config(tiny_config(tmp_path, out))
    run_experiment(cfg)

    def rows(value):
        return run_table(values=np.full((2, 3), value / 3.0), global_values=[value] * 2,
                         grad_norms=np.zeros((2, 3)), messages=[6, 6])

    write_run_csv(os.path.join(out, run_file_name("distributed_one_point", 0)), rows(0.0))
    write_run_csv(os.path.join(out, run_file_name("distributed_one_point", 1)), rows(2.0))
    summary = summarize(out)
    alg = "distributed_one_point"
    np.testing.assert_allclose(summary.mean_value[alg], [1.0, 1.0])
    np.testing.assert_allclose(summary.std_value[alg], np.sqrt(2.0))
    assert summary.final_mean(alg) == 1.0
    assert summary.tail_std(alg) == pytest.approx(np.sqrt(2.0))
    assert summary.total_messages[alg] == 24


_EDGE_DOUBLES = (0.0, -0.0, 5e-324, -5e-324, 1e300, 2.0 ** 53 + 1, 1.7976931348623157e308,
                 -1.7976931348623157e308)
_EDGE_COUNTS = (0, 2 ** 53 + 1, 2 ** 63 - 1)


@st.composite
def run_tables(draw):
    """Run tables with N in 1..40, 1..6 rows, any finite doubles and any
    counts below 2**63."""
    n, k = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    cell = st.one_of(st.sampled_from(_EDGE_DOUBLES),
                     st.floats(allow_nan=False, allow_infinity=False))
    count = st.one_of(st.sampled_from(_EDGE_COUNTS), st.integers(0, 2 ** 63 - 1))
    rows = np.array(draw(st.lists(cell, min_size=k * (2 * n + 1),
                                  max_size=k * (2 * n + 1)))).reshape(k, 2 * n + 1)
    return run_table(values=rows[:, :n], global_values=rows[:, n], grad_norms=rows[:, n + 1:],
                     messages=draw(st.lists(count, min_size=k, max_size=k)),
                     epochs=draw(st.lists(count, min_size=k, max_size=k)))


@given(run_tables())
@example(run_table(values=[[-0.0, 5e-324], [1e300, 2.0 ** 53 + 1]], global_values=[-0.0, 1e300],
                   grad_norms=[[5e-324, 0.0], [2.0 ** 53 + 1, 1e300]],
                   messages=[2 ** 63 - 1, 2 ** 53 + 1], epochs=[2 ** 53 + 1, 2 ** 63 - 1]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_run_csv_round_trip_is_exact(tmp_path, table):
    path = str(tmp_path / "run.csv")
    write_run_csv(path, table)
    back = read_run_csv(path)
    for name in ("epochs", "values", "global_values", "grad_norms", "messages"):
        got, want = getattr(back, name), getattr(table, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_read_run_csv_wants_its_magic_line(tmp_path):
    path = str(tmp_path / "run.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,value\n0,1\n")
    with pytest.raises(ValueError, match="not a dirmarl run csv"):
        read_run_csv(path)


def test_read_run_csv_reads_counts_exactly(tmp_path):
    # epoch and message counts come from their digit text, not through
    # doubles: 2**53 + 1 keeps its low bit, and 2**63 or more is an error
    def rewrite(path, row, col, text):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        cells = lines[row - 1].split(",")
        cells[col] = text
        lines[row - 1] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    path = str(tmp_path / "run.csv")
    write_run_csv(path, run_table(values=np.ones((3, 2)), global_values=[2.0] * 3,
                                  grad_norms=np.zeros((3, 2)), messages=[2] * 3))
    rewrite(path, 4, -1, "9007199254740993")
    rewrite(path, 5, 0, "9007199254740993")
    table = read_run_csv(path)
    assert table.messages.tolist() == [2, 9007199254740993, 2]
    assert table.epochs.tolist() == [0, 1, 9007199254740993]
    assert table.messages.dtype == table.epochs.dtype == np.int64
    for row, col, name in ((4, -1, "messages"), (3, 0, "epoch")):
        rewrite(path, row, col, "99999999999999999999")
        with pytest.raises(ValueError, match=rf"^{re.escape(path)}:{row}: {name} must be "
                                             r"below 2\*\*63, got '99999999999999999999'$"):
            read_run_csv(path)
    rewrite(path, 4, -1, "9223372036854775807")  # 2**63 - 1, the largest count
    with pytest.raises(ValueError, match=r":3: epoch must be below 2\*\*63, got "):
        read_run_csv(path)  # rows are read in file order

    # summarize's message total is an exact int past 2**63
    out = str(tmp_path / "out")
    run_experiment(load_config(tiny_config(tmp_path, out, epochs=3)))
    _damage_run_csvs(out, lambda lines: lines[:2] + [ln.rpartition(",")[0] + f",{2 ** 62 + 1}"
                                                     for ln in lines[2:]])
    assert summarize(out).total_messages["distributed_one_point"] == 6 * (2 ** 62 + 1)


def random_table(rng, rows: int):
    """A 3-agent run table of ``rows`` rows drawn row by row, at 6
    messages per episode."""
    values, global_values, grad_norms = [], [], []
    for _ in range(rows):
        values.append(rng.standard_normal(3))
        global_values.append(rng.random())
        grad_norms.append(rng.random(3))
    return run_table(values, global_values, grad_norms, [6] * rows)


def test_read_run_csv_names_a_bad_byte_by_its_file_offset(tmp_path):
    path = str(tmp_path / "run.csv")
    rng = np.random.default_rng(3)
    write_run_csv(path, random_table(rng, 120))
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    offset = 17278  # past two 8 KB decode chunks
    assert len(data) > offset
    data[offset] = 0xff
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(ValueError, match=rf"^{re.escape(path)} is not UTF-8 text: .* "
                                         rf"in position {offset}: "):
        read_run_csv(path)


def test_read_run_csv_opens_a_file_once(tmp_path, monkeypatch):
    path = str(tmp_path / "run.csv")
    checksum = write_run_csv(path, random_table(np.random.default_rng(4), 5))
    opened = []
    real_open = open

    def spy(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(dirmarl.experiments, "open", spy, raising=False)
    for given in (checksum, [checksum[0] ^ 1, checksum[1]], None):
        opened.clear()
        read_run_csv(path, given)
        assert opened == [path], given
    with real_open(path, "ab") as fh:
        fh.write(b"0,\xff\n")
    opened.clear()
    with pytest.raises(ValueError, match="is not UTF-8 text"):
        read_run_csv(path, checksum)
    assert opened == [path]


def _assert_reads_like_the_row_loop(path) -> bool:
    """``read_run_csv`` gives ``reference_read_run_csv``'s arrays bit for
    bit, or its error text; True when the file was accepted."""
    try:
        want = reference_read_run_csv(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            read_run_csv(path)
        assert str(got.value) == str(exc)
        return False
    got = read_run_csv(path)
    for name in ("epochs", "values", "global_values", "grad_norms", "messages"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    return True


# cell texts around float()'s grammar: blanks, underscores, non-ASCII
# digits and blanks, the separators str.isspace() counts, signs, hex,
# overflow, and commas that change the cell count
_CELL_TEXT = st.one_of(
    st.sampled_from(["nan", "-inf", "1e999", "1_0", "+3", " 1.5", "1\x1c", "", "0x10"]),
    st.text(alphabet="0123456789+-.eE_x ,\t\x1c\x1f\u00a0\u2003\u0663\uff11#nafi",
            max_size=8))


@given(col=st.integers(0, 8), text=_CELL_TEXT, row=st.integers(3, 6))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_run_csv_agrees_with_the_row_loop(tmp_path, col, text, row):
    path = str(tmp_path / "run.csv")
    rng = np.random.default_rng(row)
    write_run_csv(path, random_table(rng, 4))
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[row - 1].split(",")
    cells[col] = text
    lines[row - 1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _assert_reads_like_the_row_loop(path)


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

    # non-finite input, a requirement or bound constant that overflows or
    # divides by an underflowed eps^5, and a step size that overflows or
    # underflows to zero, exits 2 with a named cause
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
                          "value_max must be finite"),
                         (["--eps", "1e-250", "--lip", "1"],
                          "eta for eps 1e-250, dimension 2 and 1 epochs underflows to zero"),
                         (["--eps", "1e250", "--lip", "1"],
                          "eta for eps 1e+250, dimension 2 and 1 epochs is not a finite")):
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


def test_cli_run_output_flag_beats_environment_beats_config(tmp_path, monkeypatch):
    dirs = {source: tmp_path / source for source in ("config", "env", "flag")}
    path = tiny_config(tmp_path, str(dirs["config"]), repeats=1)
    monkeypatch.delenv("DIRMARL_OUTPUT_DIR", raising=False)
    for env, flag, want in ((False, False, "config"), (True, False, "env"), (True, True, "flag")):
        if env:
            monkeypatch.setenv("DIRMARL_OUTPUT_DIR", str(dirs["env"]))
        assert main(["run", path] + (["--output", str(dirs["flag"])] if flag else [])) == 0
        assert [s for s, d in dirs.items() if d.exists()] == [want]
        assert (dirs[want] / "manifest.json").is_file()
        shutil.rmtree(dirs[want])


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
    out = tmp_path / "out"
    old = tiny_config(tmp_path, str(out), extra="checkpoint_every = 2", name="old.cfg")
    assert main(["run", old]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'checkpoint_every' in [experiment]" in err
    assert "Traceback" not in err and not out.exists()


def test_cli_run_output_over_a_file_exits_2(tmp_path, capsys):
    path = tiny_config(tmp_path, str(tmp_path / "out"))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["run", path, "--output", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {taken}: ")
    assert taken.read_text() == "not a directory\n"


def test_cli_run_names_a_run_csv_it_cannot_write(tmp_path, capsys):
    # a directory in place of a run CSV: training finishes, and the write
    # is an error that names the file and leaves no temporary behind
    out = tmp_path / "out"
    taken = out / run_file_name("distributed_one_point", 0)
    taken.mkdir(parents=True)
    assert main(["run", tiny_config(tmp_path, str(out))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {taken}: ") and "Traceback" not in err
    assert os.listdir(out) == [taken.name] and taken.is_dir()


def test_cli_summarize_names_a_run_csv_it_cannot_read(tmp_path, capsys):
    out = tmp_path / "out"
    run_experiment(load_config(tiny_config(tmp_path, str(out))))
    path = out / run_file_name("distributed_one_point", 0)
    path.unlink()
    path.mkdir()
    assert main(["summarize", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {path}: Is a directory\n"
    path.rmdir()  # a missing file is still a missing run
    assert main(["summarize", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {out} is incomplete; missing runs: "
                                       f"{path.name}\n")


def test_cli_run_rejects_a_jitter_whose_span_overflows(tmp_path, capsys):
    # Each value is finite, but the jitter's uniform draw spans
    # 2 * initial_stock_jitter, which is not: the config fails at load,
    # before the run makes its directory
    out = tmp_path / "out"
    path = tiny_config(tmp_path, str(out), extra="[environment]\n"
                       "initial_stock_mean = 1.7e308\ninitial_stock_jitter = 1e308\n")
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: initial_stock_jitter 1e+308 is too large")
    assert not out.exists()


def test_cli_run_names_a_horizon_too_large_to_draw(tmp_path):
    # the config load sizes one repeat's noise traces and refuses them,
    # so nothing is allocated; the run stops with a named cause before
    # any manifest
    out = tmp_path / "out"
    path = tiny_config(tmp_path, str(out))
    with open(path, encoding="utf-8") as fh:
        text = fh.read().replace("horizon = 8", "horizon = 1000000000000000")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    src = os.path.dirname(os.path.dirname(dirmarl.experiments.__file__))
    done = subprocess.run([sys.executable, "-m", "dirmarl", "run", path],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and "horizon 1000000000000000" in done.stderr
    assert "epochs 2 x 3 agents" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("key", ["epochs", "num_centers"])
def test_cli_run_refuses_a_repeat_too_large_to_hold(tmp_path, capsys, key):
    # One repeat's pre-drawn streams and policy tables are sized when the
    # config loads, so the run fails there, before it allocates anything
    # or makes its directory, and names the key that makes it too large
    out, big = tmp_path / "out", 10 ** 12
    path = (tiny_config(tmp_path, str(out), epochs=big) if key == "epochs"
            else tiny_config(tmp_path, str(out), extra=f"[policy]\nnum_centers = {big}\n"))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: {key} {big} is too large"):
            load_config(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {key} {big} is too large")
    assert "Traceback" not in err
    assert not out.exists()


def test_repeat_size_limit_counts_streams_and_policy_tables(tmp_path):
    # 3-cycle, 4 centers: d = 4 (3 + 3) parameters; an epoch draws d probe
    # entries plus (horizon + 1) x 3 noise entries; the policy tables are
    # two (4, 2 x 3 + 3) tables plus the (K, 4) feature index, K x 4 = d
    cfg = load_config(tiny_config(tmp_path, str(tmp_path / "out")))
    d = 4 * (3 + 3)
    tables = 2 * 4 * (2 * 3 + 3) + d
    most = (MAX_REPEAT_DOUBLES - tables) // (d + 9 * 3)
    assert replace(cfg, epochs=most).epochs == most
    with pytest.raises(ConfigError, match=r"^epochs \d+ is too large"):
        replace(cfg, epochs=most + 1)
    with pytest.raises(ConfigError, match=r"^horizon \d+ is too large"):
        replace(cfg, horizon=MAX_REPEAT_DOUBLES)


ALL_ABORTING = """
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
"""


@pytest.mark.parametrize("aborting", [True, False])
def test_cli_run_and_summarize_print_the_same_report(tmp_path, capsys, aborting):
    out = str(tmp_path / "out")
    path = (write_config(tmp_path, ALL_ABORTING.format(out=out)) if aborting else
            tiny_config(tmp_path, out, algorithms="distributed_one_point centralized_one_point"))
    assert main(["run", path]) == 0
    ran = capsys.readouterr().out.splitlines()
    assert ran[0] == f"wrote {out}"
    assert main(["summarize", out]) == 0
    assert capsys.readouterr().out.splitlines() == ran[1:]
    aborted = [ln for ln in ran if ln.startswith("aborted: ")]
    if aborting:
        assert ran[1:4] == ["epochs: 2", "distributed_one_point: no completed runs",
                            "centralized_two_point: no completed runs"]
        assert sorted(aborted) == [
            f"aborted: {a} repeat {r}: NonFiniteScores: non-finite allocation scores "
            "for agents [1, 2]" for a in ("centralized_two_point", "distributed_one_point")
            for r in (0, 1)]
    else:
        assert not aborted
        assert re.fullmatch(r"distributed_one_point: final value \S+ \+- \S+ over 2 repeats, "
                            r"tail std \S+, \d+ messages", ran[2])
        assert ran[-1].startswith("variance one_point: distributed ")


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


def test_cli_validate_names_a_negative_seed(capsys):
    assert main(["validate", "--quick", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_an_interrupted_validate_json_write_leaves_the_old_report(tmp_path, monkeypatch):
    # KeyboardInterrupt half-way through writing the report: the file of
    # an earlier run stays whole under the final name, and no temporary
    # is left beside it
    report = tmp_path / "report.json"
    report.write_text("[]\n", encoding="utf-8")
    monkeypatch.setattr("dirmarl.cli.run_validation",
                        lambda **kw: [CheckResult("stub", True, "x" * 100)])
    real_open = open

    def torn_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return Torn(fh) if "w" in mode and str(path).startswith(str(report)) else fh

    monkeypatch.setattr(dirmarl.experiments, "open", torn_open, raising=False)
    with pytest.raises(KeyboardInterrupt):
        main(["validate", "--json", str(report)])
    monkeypatch.setattr(dirmarl.experiments, "open", real_open, raising=False)
    assert os.listdir(tmp_path) == ["report.json"]
    assert report.read_text(encoding="utf-8") == "[]\n"

    assert main(["validate", "--json", str(report)]) == 0
    assert json.loads(report.read_text(encoding="utf-8")) == [
        {"name": "stub", "passed": True, "detail": "x" * 100}]


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
