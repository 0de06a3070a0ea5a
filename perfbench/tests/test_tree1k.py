"""Tests of the seeded tree1k workload generator.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import dirmarl  # noqa: E402
import workloads as W  # noqa: E402


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_same_seed_gives_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    pa, pb = W.write_tree1k(str(a), 5, 8), W.write_tree1k(str(b), 5, 8)
    assert _read(pa) == _read(pb)
    graph = "tree1k.seed5.graph"
    assert _read(a / graph) == _read(b / graph)
    W.write_tree1k(str(b), 6, 8)
    assert _read(a / graph) != _read(b / "tree1k.seed6.graph")


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_graph_shape_and_config(tmp_path, seed):
    cfg = dirmarl.load_config(W.write_tree1k(str(tmp_path), seed, 8))
    g = cfg.graph
    assert g.num_agents == W.TREE_AGENTS
    assert len(g.edges) == W.TREE_AGENTS - 1 + W.TREE_BACK_EDGES
    assert len(dirmarl.check_weak_connectivity(g)) == 1
    edges = sorted(g.edges)
    arts = dirmarl.build_artifacts(g)
    n_learning = W.learning_edge_count(g.num_agents, edges)
    assert len(arts.learning.edges) == n_learning
    lo, hi = W.TREE_LEARNING_EDGES
    assert lo <= n_learning <= hi
    # each back edge closes a 2-cycle on a distinct child
    assert arts.clusters.num_clusters == W.cluster_count(g.num_agents, edges)
    assert arts.clusters.num_clusters == W.TREE_AGENTS - W.TREE_BACK_EDGES


def test_learning_edge_count_matches_program_on_bundled_configs():
    for name in ("example1", "example2"):
        cfg = dirmarl.load_config(os.path.join(W.ROOT, W.WORKLOADS[name].config))
        arts = dirmarl.build_artifacts(cfg.graph)
        assert W.learning_edge_count(cfg.graph.num_agents, cfg.graph.edges) == \
            len(arts.learning.edges)


@pytest.mark.parametrize("seed", [0, 3])
def test_workload_settings_do_not_abort(tmp_path, seed):
    wl = W.WORKLOADS["tree1k"]
    cfg = dirmarl.load_config(W.write_tree1k(str(tmp_path), seed, wl.epochs))
    cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "run"))
    assert (cfg.epochs, cfg.repeats, len(cfg.algorithms)) == (wl.epochs, 1, 2)
    summary = dirmarl.run_experiment(cfg)
    assert summary.aborted == ()
    assert set(summary.executed) == set(cfg.algorithms)
