"""Cooperative multi-agent RL over directed coordination graphs.

Agents coupled through a directed graph learn policies from local
value functions: each agent collects the rewards of exactly the agents
it can reach, and ascends a zeroth-order estimate of its block of the
policy gradient.  The package provides the graph machinery, a
warehouse resource-allocation benchmark, RBF-softmax policies, three
gradient oracles with variance bounds, the distributed training loop
with an audited message bus, an experiment harness, and an empirical
validation suite for the underlying identities.

The package namespace carries the experiment entry points; everything
else is imported from its submodule (``dirmarl.learner`` and so on).
``import dirmarl`` loads only what set-up needs (config, graphs,
oracles, policy, warehouse).  ``run_experiment``, ``summarize`` and
``run_validation`` load their submodule, with the learner, on first use.
"""

import importlib

from .configio import ConfigError, load_config
from .graphs import build_artifacts, check_weak_connectivity
from .policy import RbfPolicy
from .warehouse import WarehouseEnv

__version__ = "0.1.0"

# Entry point -> the submodule that defines it, imported on first access.
_LAZY = {"run_experiment": "experiments", "summarize": "experiments",
         "run_validation": "validation"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
