"""Experiment configuration files and graph files.

A config is INI-style text with five sections.  Only [graph] is
required; every other key has the bundled default, and the resolved
values are echoed into the run manifest.

    [graph]
    num_agents = 3
    edges = 1->2 2->3          ; or: file = some.graph

    [environment]
    initial_stock_mean = 1.0
    initial_stock_jitter = 0.01
    demand_amplitude = 0.2     ; scalar or one value per agent
    demand_noise_std = 0.1
    fixed_initial_state = false
    clip_demand_noise = false
    shared_demand_noise = false

    [policy]
    num_centers = 4
    kernel = squared
    stock_range = -1 2
    demand_range = 0 0.5

    [learner]
    delta = 0.1
    eta = 0.01
    epochs = 600
    horizon = 8
    discount = 1.0

    [experiment]
    algorithms = distributed_one_point centralized_one_point
    repeats = 10
    master_seed = 0
    output_dir = runs
    checkpoint_every = 0

A graph file is line-oriented: comments start with '#', the first
meaningful line is ``agents N``, every further line one ``source
target`` edge.  Coordination graphs must be weakly connected.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

from .graphs import CoordinationGraph, build_graph, check_weak_connectivity
from .learner import ALGORITHMS
from .policy import KERNELS
from .warehouse import WarehouseConfig, WarehouseEnv

DEFAULT_ALGORITHMS = (
    "distributed_one_point",
    "centralized_one_point",
    "distributed_two_point",
    "centralized_two_point",
)

_SECTIONS = {
    "graph": ("num_agents", "edges", "file"),
    "environment": ("initial_stock_mean", "initial_stock_jitter", "demand_amplitude",
                    "demand_noise_std", "fixed_initial_state", "clip_demand_noise",
                    "shared_demand_noise"),
    "policy": ("num_centers", "kernel", "stock_range", "demand_range"),
    "learner": ("delta", "eta", "epochs", "horizon", "discount"),
    "experiment": ("algorithms", "repeats", "master_seed", "output_dir",
                   "checkpoint_every"),
}


class ConfigError(ValueError):
    """Unusable config or graph file; the message names the offender."""


@dataclass(frozen=True)
class PolicySettings:
    num_centers: int = 4
    kernel: str = "squared"
    stock_range: tuple[float, float] = (-1.0, 2.0)
    demand_range: tuple[float, float] = (0.0, 0.5)

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ConfigError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        if self.num_centers < 1:
            raise ConfigError(f"num_centers must be >= 1, got {self.num_centers}")
        for key in ("stock_range", "demand_range"):
            lo, hi = getattr(self, key)
            if not lo < hi:
                raise ConfigError(f"{key} must be an increasing pair lo hi, got {lo} {hi}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, defaults resolved."""

    graph: CoordinationGraph
    warehouse: WarehouseConfig
    policy: PolicySettings = field(default_factory=PolicySettings)
    delta: float = 0.1
    eta: float = 0.01
    epochs: int = 600
    horizon: int = 8
    discount: float = 1.0
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    repeats: int = 10
    master_seed: int = 0
    output_dir: str = "runs"
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.warehouse.graph is not self.graph:
            raise ConfigError("graph and warehouse.graph must be the same object")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ConfigError("algorithms listed twice")
        if self.delta <= 0.0:
            raise ConfigError(f"delta must be > 0, got {self.delta}")
        if self.eta < 0.0:
            raise ConfigError(f"eta must be >= 0, got {self.eta}")
        if self.epochs < 1 or self.horizon < 1:
            raise ConfigError(f"epochs and horizon must be >= 1, "
                              f"got {self.epochs}, {self.horizon}")
        if not 0.0 < self.discount <= 1.0:
            raise ConfigError(f"discount must lie in (0, 1], got {self.discount}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")

    def echo(self) -> dict:
        """Resolved values as plain data for the run manifest."""
        amp = self.warehouse.demand_amplitude
        return {
            "graph": {"num_agents": self.graph.num_agents,
                      "edges": [list(e) for e in self.graph.edges]},
            "environment": {
                "initial_stock_mean": self.warehouse.initial_stock_mean,
                "initial_stock_jitter": self.warehouse.initial_stock_jitter,
                "demand_amplitude": list(amp) if hasattr(amp, "__len__") else amp,
                "demand_noise_std": self.warehouse.demand_noise_std,
                "fixed_initial_state": self.warehouse.fixed_initial_state,
                "clip_demand_noise": self.warehouse.clip_demand_noise,
                "shared_demand_noise": self.warehouse.shared_demand_noise,
            },
            "policy": {"num_centers": self.policy.num_centers,
                       "kernel": self.policy.kernel,
                       "stock_range": list(self.policy.stock_range),
                       "demand_range": list(self.policy.demand_range)},
            "learner": {"delta": self.delta, "eta": self.eta, "epochs": self.epochs,
                        "horizon": self.horizon, "discount": self.discount},
            "experiment": {"algorithms": list(self.algorithms), "repeats": self.repeats,
                           "master_seed": self.master_seed, "output_dir": self.output_dir,
                           "checkpoint_every": self.checkpoint_every},
        }


def load_graph_file(path: str) -> CoordinationGraph:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read graph file {path}: {exc}") from exc
    num_agents = None
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if num_agents is None:
            if len(parts) != 2 or parts[0] != "agents":
                raise ConfigError(f"{path}:{lineno}: expected 'agents N', got {text!r}")
            num_agents = _as_int(parts[1], f"{path}:{lineno}: agent count")
        else:
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected 'source target', got {text!r}")
            edges.append((_as_int(parts[0], f"{path}:{lineno}: source"),
                          _as_int(parts[1], f"{path}:{lineno}: target")))
    if num_agents is None:
        raise ConfigError(f"{path}: empty graph file")
    return _checked_graph(num_agents, edges, path)


def _checked_graph(num_agents: int, edges, origin: str) -> CoordinationGraph:
    try:
        graph = build_graph(num_agents, edges)
    except ValueError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc
    components = check_weak_connectivity(graph)
    if len(components) != 1:
        raise ConfigError(
            f"{origin}: coordination graph is not weakly connected; "
            f"components {[list(c) for c in components]}")
    return graph


def parse_edge_list(text: str, origin: str) -> list[tuple[int, int]]:
    edges = []
    for token in text.replace(",", " ").split():
        if "->" not in token:
            raise ConfigError(f"{origin}: edge {token!r} is not of the form 1->2")
        a, _, b = token.partition("->")
        edges.append((_as_int(a, f"{origin}: edge source in {token!r}"),
                      _as_int(b, f"{origin}: edge target in {token!r}")))
    return edges


def _as_int(text, what: str) -> int:
    try:
        return int(str(text).strip())
    except ValueError as exc:
        raise ConfigError(f"{what} must be an integer, got {text!r}") from exc


def _as_float(text, what: str) -> float:
    try:
        value = float(str(text).strip())
    except ValueError as exc:
        raise ConfigError(f"{what} must be a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {text!r}")
    return value


def _as_bool(text, what: str) -> bool:
    val = str(text).strip().lower()
    if val in ("true", "yes", "on", "1"):
        return True
    if val in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{what} must be a boolean, got {text!r}")


def _as_pair(text, what: str) -> tuple[float, float]:
    parts = str(text).replace(",", " ").split()
    if len(parts) != 2:
        raise ConfigError(f"{what} must be two numbers, got {text!r}")
    return (_as_float(parts[0], what), _as_float(parts[1], what))


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")

    if "graph" not in parser:
        raise ConfigError(f"{path}: missing required section [graph]")
    gsec = parser["graph"]
    if "file" in gsec:
        ref = gsec["file"].strip()
        graph = load_graph_file(os.path.join(os.path.dirname(os.path.abspath(path)), ref)
                                if not os.path.isabs(ref) else ref)
    else:
        if "num_agents" not in gsec:
            raise ConfigError(f"{path}: missing required field 'num_agents' in [graph]")
        if "edges" not in gsec:
            raise ConfigError(f"{path}: missing required field 'edges' in [graph]")
        num_agents = _as_int(gsec["num_agents"], f"{path}: num_agents")
        edges = parse_edge_list(gsec["edges"], path)
        graph = _checked_graph(num_agents, edges, path)

    esec = parser["environment"] if "environment" in parser else {}
    amplitude = esec.get("demand_amplitude", "0.2")
    amp_parts = str(amplitude).replace(",", " ").split()
    amp = (_as_float(amp_parts[0], f"{path}: demand_amplitude") if len(amp_parts) == 1
           else tuple(_as_float(p, f"{path}: demand_amplitude") for p in amp_parts))
    try:
        warehouse = WarehouseConfig(
            graph=graph,
            initial_stock_mean=_as_float(esec.get("initial_stock_mean", "1.0"),
                                         f"{path}: initial_stock_mean"),
            initial_stock_jitter=_as_float(esec.get("initial_stock_jitter", "0.01"),
                                           f"{path}: initial_stock_jitter"),
            demand_amplitude=amp,
            demand_noise_std=_as_float(esec.get("demand_noise_std", "0.1"),
                                       f"{path}: demand_noise_std"),
            fixed_initial_state=_as_bool(esec.get("fixed_initial_state", "false"),
                                         f"{path}: fixed_initial_state"),
            clip_demand_noise=_as_bool(esec.get("clip_demand_noise", "false"),
                                       f"{path}: clip_demand_noise"),
            shared_demand_noise=_as_bool(esec.get("shared_demand_noise", "false"),
                                         f"{path}: shared_demand_noise"),
        )
        WarehouseEnv(warehouse)  # surface range violations here, not mid-run
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    psec = parser["policy"] if "policy" in parser else {}
    policy = PolicySettings(
        num_centers=_as_int(psec.get("num_centers", "4"), f"{path}: num_centers"),
        kernel=str(psec.get("kernel", "squared")).strip(),
        stock_range=_as_pair(psec.get("stock_range", "-1 2"), f"{path}: stock_range"),
        demand_range=_as_pair(psec.get("demand_range", "0 0.5"), f"{path}: demand_range"),
    )

    lsec = parser["learner"] if "learner" in parser else {}
    xsec = parser["experiment"] if "experiment" in parser else {}
    algorithms = tuple(str(xsec.get("algorithms", " ".join(DEFAULT_ALGORITHMS)))
                       .replace(",", " ").split())
    return ExperimentConfig(
        graph=graph,
        warehouse=warehouse,
        policy=policy,
        delta=_as_float(lsec.get("delta", "0.1"), f"{path}: delta"),
        eta=_as_float(lsec.get("eta", "0.01"), f"{path}: eta"),
        epochs=_as_int(lsec.get("epochs", "600"), f"{path}: epochs"),
        horizon=_as_int(lsec.get("horizon", "8"), f"{path}: horizon"),
        discount=_as_float(lsec.get("discount", "1.0"), f"{path}: discount"),
        algorithms=algorithms,
        repeats=_as_int(xsec.get("repeats", "10"), f"{path}: repeats"),
        master_seed=_as_int(xsec.get("master_seed", "0"), f"{path}: master_seed"),
        output_dir=str(xsec.get("output_dir", "runs")).strip(),
        checkpoint_every=_as_int(xsec.get("checkpoint_every", "0"),
                                 f"{path}: checkpoint_every"),
    )
