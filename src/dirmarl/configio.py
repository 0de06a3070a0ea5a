"""Experiment configuration files and graph files.

A config is INI-style text with the sections [graph], [environment],
[policy], [learner] and [experiment]; ``_KEYS`` lists the keys each may
hold, with their parsers, and README.md shows them all.  Only [graph]
is required.  [environment] fills ``warehouse.WarehouseConfig``,
[policy] ``policy.PolicySettings``, the rest ``ExperimentConfig``: each
settings object holds its defaults, which absent keys take, and checks
itself; this module only parses.  Resolved values go to the manifest.

[graph] holds ``num_agents`` and ``edges`` (``1->2, 2->3``), or
``file``: a graph file, relative to the config.  A graph file is
line-oriented: comments start with '#', the first meaningful line is
``agents N``, every further line one ``source target`` edge.
Coordination graphs must be weakly connected.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

from .graphs import CoordinationGraph, build_graph, check_weak_connectivity
from .oracles import ALGORITHMS
from .policy import PolicySettings
from .warehouse import WarehouseConfig

# Every scope's one-point and two-point algorithm, in ALGORITHMS' order.
DEFAULT_ALGORITHMS = tuple(a for a in ALGORITHMS if not a.endswith("_residual"))


# The most doubles one repeat may hold in its pre-drawn streams and
# policy tables (1 GiB): a run draws all of a repeat's streams before its
# first episode, so a larger one would fill memory instead of failing.
MAX_REPEAT_DOUBLES = 2 ** 27


class ConfigError(ValueError):
    """Unusable config or graph file; the message names the offender."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, defaults resolved."""

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

    def __post_init__(self):
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if not self.algorithms:
            raise ConfigError("algorithms must name at least one algorithm")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {name!r} in algorithms; "
                                  f"choose from {ALGORITHMS}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ConfigError("algorithms listed twice")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if not self.delta > 0.0:  # NaN fails every comparison
            raise ConfigError(f"delta must be > 0, got {self.delta}")
        if not self.eta >= 0.0:
            raise ConfigError(f"eta must be >= 0, got {self.eta}")
        if self.epochs < 1 or self.horizon < 1:
            raise ConfigError(f"epochs and horizon must be >= 1, "
                              f"got {self.epochs}, {self.horizon}")
        if not 0.0 < self.discount <= 1.0:
            raise ConfigError(f"discount must lie in (0, 1], got {self.discount}")
        self._check_repeat_size()

    def _check_repeat_size(self) -> None:
        """One repeat's probes (epochs x d), noise traces (epochs x (horizon
        + 1) x N) and policy tables (2 num_centers x (2N + |E|) plus d),
        d = num_centers x (N + |E|), against ``MAX_REPEAT_DOUBLES``.  The
        error names the key whose value 1 would shrink the size most."""
        n, e = self.graph.num_agents, len(self.graph.edges)

        def doubles(epochs, horizon, num_centers):
            d = num_centers * (n + e)
            return epochs * (d + (horizon + 1) * n) + 2 * num_centers * (2 * n + e) + d

        keys = {"epochs": self.epochs, "horizon": self.horizon,
                "num_centers": self.policy.num_centers}
        total = doubles(**keys)
        if total > MAX_REPEAT_DOUBLES:
            key = min(keys, key=lambda k: doubles(**{**keys, k: 1}))
            raise ConfigError(
                f"{key} {keys[key]} is too large: one repeat would hold {total} doubles, above "
                f"the {MAX_REPEAT_DOUBLES} a run may hold (probes of epochs {self.epochs} x "
                f"{keys['num_centers'] * (n + e)} parameters, noise traces of (horizon "
                f"{self.horizon} + 1) x epochs {self.epochs} x {n} agents, policy tables of "
                f"num_centers {keys['num_centers']})")

    @property
    def graph(self) -> CoordinationGraph:
        return self.warehouse.graph

    def echo(self) -> dict:
        """Resolved values as plain data for the run manifest."""
        owners = {"environment": self.warehouse, "policy": self.policy,
                  "learner": self, "experiment": self}
        # edges in the config's own inline syntax, by source, then target
        edges = ", ".join(f"{i}->{j}" for i, j in (self.graph.edge_array.T + 1).tolist())
        echo = {"graph": {"num_agents": self.graph.num_agents, "edges": edges}}
        for section, owner in owners.items():
            echo[section] = {key: _plain(getattr(owner, key)) for key in _KEYS[section]}
        return echo


def _plain(value):
    return value if isinstance(value, str) or not hasattr(value, "__len__") else list(value)


def load_graph_file(path: str) -> CoordinationGraph:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read graph file {path}: {exc}") from exc
    num_agents = None
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        where = f"{path}:{lineno}"
        if num_agents is None:
            if len(parts) != 2 or parts[0] != "agents":
                raise ConfigError(f"{where}: expected 'agents N', got {text!r}")
            num_agents = _as_int(parts[1], f"{where}: agent count")
            origin = where
        else:
            if len(parts) != 2:
                raise ConfigError(f"{where}: expected 'source target', got {text!r}")
            edges.append((where, (_as_int(parts[0], f"{where}: source"),
                                  _as_int(parts[1], f"{where}: target"))))
    if num_agents is None:
        raise ConfigError(f"{path}: empty graph file")
    return _checked_graph(num_agents, edges, origin)


def _checked_graph(num_agents: int, edges, origin: str) -> CoordinationGraph:
    """Build a weakly connected graph from ``(where, (i, j))`` pairs.
    ``where`` names the line or key an edge came from and ``origin``
    the agent count; each error names the one it is about."""
    if len(edges) < num_agents - 1:
        raise ConfigError(f"{origin}: coordination graph is not weakly connected: "
                          f"{num_agents} agents need at least {num_agents - 1} edges, "
                          f"got {len(edges)}")
    where = origin

    def in_order():
        # build_graph checks the edges in order and stops at the first
        # bad one, so ``where`` is then that edge's source.
        nonlocal where
        for where, edge in edges:
            yield edge

    try:
        graph = build_graph(num_agents, in_order())
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    components = check_weak_connectivity(graph)
    if len(components) != 1:
        shown = ", ".join(f"[{_listed(c, 8)}]" for c in components[:3])
        raise ConfigError(f"{origin}: coordination graph is not weakly connected; "
                          f"{len(components)} components: {shown}"
                          + (", ..." if len(components) > 3 else ""))
    return graph


def _listed(items, limit: int) -> str:
    text = ", ".join(str(x) for x in items[:limit])
    return text if len(items) <= limit else f"{text}, ... ({len(items)} in all)"


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


def _as_pair(text, what: str) -> tuple[float, float]:
    parts = str(text).replace(",", " ").split()
    if len(parts) != 2:
        raise ConfigError(f"{what} must be two numbers, got {text!r}")
    return (_as_float(parts[0], what), _as_float(parts[1], what))


def _as_amplitude(text, what: str) -> float | tuple[float, ...]:
    """One number for every agent, or one per agent."""
    values = tuple(_as_float(p, what) for p in str(text).replace(",", " ").split())
    if not values:
        raise ConfigError(f"{what} must be one number or one per agent, got {text!r}")
    return values[0] if len(values) == 1 else values


def _as_text(text, what: str) -> str:
    value = str(text).strip()
    if not value:
        raise ConfigError(f"{what} must not be empty")
    return value


def _as_names(text, what: str) -> tuple[str, ...]:
    return tuple(str(text).replace(",", " ").split())


# Every key a config may hold, by section, with its parser.  An absent
# key takes the default of the field it fills.
_KEYS = {
    "graph": {"num_agents": _as_int, "edges": parse_edge_list, "file": _as_text},
    "environment": {"initial_stock_mean": _as_float, "initial_stock_jitter": _as_float,
                    "demand_amplitude": _as_amplitude, "demand_noise_std": _as_float},
    "policy": {"num_centers": _as_int, "kernel": _as_text, "stock_range": _as_pair,
               "demand_range": _as_pair},
    "learner": {"delta": _as_float, "eta": _as_float, "epochs": _as_int,
                "horizon": _as_int, "discount": _as_float},
    "experiment": {"algorithms": _as_names, "repeats": _as_int, "master_seed": _as_int,
                   "output_dir": _as_text},
}


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    values = {section: {} for section in _KEYS}
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, text in parser[section].items():
            if key not in _KEYS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            values[section][key] = _KEYS[section][key](text, f"{path}: {key}")

    if "graph" not in parser:
        raise ConfigError(f"{path}: missing required section [graph]")
    gkeys = values["graph"]
    if "file" in gkeys:
        try:
            graph = load_graph_file(os.path.join(os.path.dirname(os.path.abspath(path)),
                                                 gkeys["file"]))
        except ConfigError as exc:
            raise ConfigError(f"{path}: file: {exc}") from exc
    else:
        for key in ("num_agents", "edges"):
            if key not in gkeys:
                raise ConfigError(f"{path}: missing required field {key!r} in [graph]")
        graph = _checked_graph(gkeys["num_agents"],
                               [(f"{path}: edges", e) for e in gkeys["edges"]],
                               f"{path}: [graph]")
    try:
        return ExperimentConfig(warehouse=WarehouseConfig(graph=graph, **values["environment"]),
                                policy=PolicySettings(**values["policy"]),
                                **values["learner"], **values["experiment"])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
