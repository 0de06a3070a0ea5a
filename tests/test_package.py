"""What ``import dirmarl`` loads, and the entry points it exports.

Set-up (load a config, build the graph artifacts, the environment and
the policy) needs only five submodules; the experiment driver, the
claim battery and the learner load when an entry point is first used."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import dirmarl
import dirmarl.experiments
import dirmarl.validation
from dirmarl.oracles import ALGORITHMS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SETUP = """\
import sys
import dirmarl
cfg = dirmarl.load_config(sys.argv[1])
dirmarl.build_artifacts(cfg.graph)
dirmarl.WarehouseEnv(cfg.warehouse)
p = cfg.policy
dirmarl.RbfPolicy(cfg.graph, num_centers=p.num_centers, stock_range=p.stock_range,
                  demand_range=p.demand_range, kernel=p.kernel)
print(" ".join(sorted(m for m in sys.modules if m.startswith("dirmarl."))))
"""


def test_setup_loads_only_the_layers_it_uses():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", SETUP,
                          os.path.join(ROOT, "configs", "example1.cfg")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["dirmarl.configio", "dirmarl.graphs", "dirmarl.oracles",
                                  "dirmarl.policy", "dirmarl.warehouse"]


def test_benchmark_setup_runs_on_example1():
    # The benchmark's own set-up snippet, not a copy: a change to the
    # calls it makes (load_config, WarehouseEnv, RbfPolicy, cfg.policy)
    # fails here
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run as bench

    seconds, scale = bench.measure_setup(os.path.join(ROOT, "configs", "example1.cfg"))
    assert seconds > 0.0 and scale > 0.0


def test_lazy_entry_points_are_the_submodule_functions():
    from dirmarl import run_validation

    assert dirmarl.run_experiment is dirmarl.experiments.run_experiment
    assert dirmarl.summarize is dirmarl.experiments.summarize
    assert dirmarl.run_validation is run_validation is dirmarl.validation.run_validation


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_entry'"):
        getattr(dirmarl, "no_such_entry")


def test_algorithm_names_and_order():
    assert ALGORITHMS == ("distributed_one_point", "centralized_one_point",
                          "distributed_two_point", "centralized_two_point",
                          "distributed_residual", "centralized_residual")
