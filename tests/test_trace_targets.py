"""The benchmark's tracer finds every layer it wraps, and its battery
and summarize self-checks hold.

``perfbench/tracing.py`` reports a wrap target that is missing from the
package as absent instead of failing, so without this check a rename or
deletion of a traced function would only show in a benchmark run.  The
same goes for the claim battery's call and draw counts, for
summarize's one run CSV read per lane and for an experiment's one
graph build, which the benchmark's ``root_metrics`` checks against
fixed predictions."""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import dirmarl
import dirmarl.experiments
import dirmarl.learner

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import learning_edge_count  # noqa: E402


def test_every_trace_target_exists():
    original = dirmarl.learner.simulate_rollout
    entry = dirmarl.experiments.run_experiment  # dirmarl.run_experiment loads lazily
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert dirmarl.learner.simulate_rollout is not original
        assert dirmarl.run_experiment is not entry
    finally:
        tracer.uninstall()
    assert dirmarl.learner.simulate_rollout is original
    assert dirmarl.run_experiment is entry


def test_battery_trace_self_check_passes():
    tracer = tracing.Tracer()
    with tracer.installed():
        dirmarl.run_validation(0, quick=True)
    (i,) = [i for i, s in enumerate(tracer.spans) if s[tracing.PARENT] < 0]
    root = tracer.spans[i]
    assert root[tracing.NAME] == "validation.battery"
    metrics, problems = bench.root_metrics(root[tracing.NAME], root,
                                           tracer.descendants()[i], None)
    assert problems == []
    assert metrics["validation.moment_draws"] == bench.BATTERY_MOMENT_CALLS * 20_000
    assert metrics["validation.checks_failed"] == 0


def test_summarize_trace_self_check_passes(tmp_path):
    cfg = dirmarl.load_config(os.path.join(bench.ROOT, "configs", "example1.cfg"))
    cfg = replace(cfg, epochs=2, repeats=2, output_dir=str(tmp_path / "out"))
    dirmarl.run_experiment(cfg)
    lanes = len(cfg.algorithms) * cfg.repeats
    tracer = tracing.Tracer()
    with tracer.installed():
        dirmarl.summarize(cfg.output_dir)
    (i,) = [i for i, s in enumerate(tracer.spans) if s[tracing.PARENT] < 0]
    root = tracer.spans[i]
    assert root[tracing.NAME] == "experiments.summarize"
    metrics, problems = bench.root_metrics(root[tracing.NAME], root,
                                           tracer.descendants()[i], lanes)
    assert problems == []
    assert metrics["experiments.csv_read_s"] > 0


def test_memoized_graph_build_keeps_the_experiment_self_check(tmp_path):
    # build_artifacts returns its memo on a repeat: the second experiment
    # on one graph still counts one graphs.build span with the same
    # (|E_L|, clusters) attribute, and both pass the self-check.
    cfg = dirmarl.load_config(os.path.join(bench.ROOT, "configs", "example1.cfg"))
    cfg = replace(cfg, epochs=2, repeats=1, output_dir=str(tmp_path / "out"))
    n_learning = learning_edge_count(cfg.graph.num_agents, cfg.graph.edges)
    dirmarl.build_artifacts.cache_clear()
    tracer = tracing.Tracer()
    with tracer.installed():
        dirmarl.run_experiment(cfg)
        dirmarl.run_experiment(cfg)
    assert dirmarl.build_artifacts.cache_info().misses == 1
    roots = [i for i, s in enumerate(tracer.spans) if s[tracing.PARENT] < 0]
    assert [tracer.spans[i][tracing.NAME] for i in roots] == ["experiments.run"] * 2
    built = []
    for i in roots:
        spans = tracer.descendants()[i]
        _, problems = bench.root_metrics("experiments.run", tracer.spans[i], spans,
                                         (cfg, n_learning))
        assert problems == []
        built += [s[tracing.ATTR] for s in spans if s[tracing.NAME] == "graphs.build"]
    assert built == [(n_learning, 4)] * 2
