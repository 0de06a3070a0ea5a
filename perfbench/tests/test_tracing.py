"""Tests of the trace wrappers and their call-count self-check.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import dirmarl  # noqa: E402
import dirmarl.learner  # noqa: E402
import run as bench  # noqa: E402
import tracing as tr  # noqa: E402
from workloads import ROOT, learning_edge_count  # noqa: E402


def _tiny_config(tmp_path):
    cfg = dirmarl.load_config(os.path.join(ROOT, "configs", "example1.cfg"))
    return dataclasses.replace(cfg, epochs=2, repeats=1, output_dir=str(tmp_path / "run"))


def _traced_run(cfg, bypass=None):
    tracer = tr.Tracer()
    with tracer.installed():
        if bypass is not None:
            module, attr, original = bypass
            setattr(module, attr, original)
        dirmarl.run_experiment(cfg)
    (i,) = [i for i, s in enumerate(tracer.spans) if s[tr.PARENT] < 0]
    root = tracer.spans[i]
    n_learning = learning_edge_count(cfg.graph.num_agents, cfg.graph.edges)
    return bench.root_metrics(root[tr.NAME], root, tracer.descendants()[i], (cfg, n_learning))


def test_self_check_passes_and_counts_match_config(tmp_path):
    cfg = _tiny_config(tmp_path)
    metrics, problems = _traced_run(cfg)
    assert problems == []
    rollouts = 2 * (1 + 1 + 2 + 2)  # epochs x (two one-point + two two-point algorithms)
    assert metrics["warehouse.rollouts"] == rollouts
    assert metrics["policy.act_calls"] == rollouts * cfg.horizon
    assert metrics["learner.messages"] == 4 * 2 * 30
    assert metrics["learner.rollouts_per_episode"] == 1.5
    assert metrics["experiments.runs_completed"] == 4
    assert metrics["learner.episode_self_s"] < metrics["learner.episode_s"]


def test_call_routed_around_a_wrapper_is_an_error(tmp_path):
    cfg = _tiny_config(tmp_path)
    original = dirmarl.learner.simulate_rollout
    _, problems = _traced_run(cfg, bypass=(dirmarl.learner, "simulate_rollout", original))
    assert any("warehouse.rollout counted 0" in p for p in problems)


def test_absent_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tr, "TARGETS", tr.TARGETS + [
        ("learner.gone", "dirmarl.learner", "no_such_function", None)])
    original = dirmarl.learner.simulate_rollout
    tracer = tr.Tracer()
    with tracer.installed():
        assert dirmarl.learner.simulate_rollout is not original
    assert tracer.absent == ["learner.gone (dirmarl.learner.no_such_function)"]
    assert dirmarl.learner.simulate_rollout is original
