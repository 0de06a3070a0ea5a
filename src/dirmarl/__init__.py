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
"""

from .configio import ConfigError, load_config
from .experiments import run_experiment, summarize
from .graphs import build_artifacts, check_weak_connectivity
from .policy import RbfPolicy
from .validation import run_validation
from .warehouse import WarehouseEnv

__version__ = "0.1.0"
