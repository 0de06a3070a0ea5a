"""Distributed zeroth-order policy-gradient training loop.

One learning episode:

1. every agent perturbs its block with a shared joint Gaussian probe
   and the perturbed joint policy runs for one episode,
2. each agent posts its observed value once along each of its outgoing
   reward-routing edges (one-time communication per episode), and
   assembles its local value as the sum of its own value and the
   received ones,
3. a gradient oracle turns the values into per-block estimates and
   every agent ascends its own block.

The message bus is the exchange as a routing plan, built once from the
learning graph's arrays and audited at construction, so no value can
travel outside the routing graph; every episode runs exactly one
exchange and counts one message per edge.  Centralized variants still
run the same exchange (so their communication footprint is identical
and audited), but feed the oracles the directly-computed global value
instead of the local ones; they exist as the comparison baseline.

The two-point flavor re-evaluates the unperturbed policy under the
episode's exact noise trace and ships both values in the same single
message per edge, so the communication contract is flavor-independent.

The estimation step exists once: ``feedback`` applies the scope rule
and ``estimate`` the flavor's estimator.  The claim battery in
``validation`` runs the same two functions on its batched draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import LearningGraph
from .oracles import ALGORITHMS, FLAVORS, SCOPES, one_point, residual, two_point
# The episode path draws nothing; perfbench/tracing.py still wraps this
# name here, and tests/test_trace_targets.py fails on a missing target.
from .oracles import sample_perturbation  # noqa: F401
from .policy import BlockLayout, RbfPolicy
from .warehouse import WarehouseEnv, simulate_rollout


@dataclass(frozen=True)
class LearnerConfig:
    step_size: float
    delta: float                  # smoothing radius of the Gaussian probe
    flavor: str = "one_point"     # gradient oracle, one of FLAVORS
    scope: str = "distributed"    # local or global value feedback, one of SCOPES

    def __post_init__(self):
        if not self.step_size >= 0.0:  # NaN fails every comparison
            raise ValueError(f"step_size must be >= 0, got {self.step_size}")
        if not self.delta > 0.0:
            raise ValueError(f"smoothing radius delta must be > 0, got {self.delta}")
        if self.flavor not in FLAVORS:
            raise ValueError(f"flavor must be one of {FLAVORS}, got {self.flavor!r}")
        if self.scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}, got {self.scope!r}")


def parse_algorithm(name: str, delta: float, step_size: float) -> LearnerConfig:
    """Map an algorithm name like ``distributed_two_point`` onto a
    learner configuration."""
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")
    scope, flavor = name.split("_", 1)
    return LearnerConfig(step_size, delta, flavor, scope)


class CommunicationViolation(RuntimeError):
    """A value was sent outside the reward-routing graph, or an edge
    was not used exactly once in an episode."""


class TrainingDiverged(RuntimeError):
    """Parameters or gradient turned non-finite; training aborts."""


class MessageBus:
    """Static routing plan for the per-episode reward exchange.

    Agent i's local value is its own value plus those of its E_L
    in-neighbours, added in ascending agent order.  The plan is sliced
    once from the learning graph's CSR arrays, audited first: every
    sender another agent, once per target, ascending.  ``gather``
    applies it to any agent-first array and keeps no state; ``exchange``
    is the audited per-episode use of it: each episode runs exactly one
    exchange, which counts one message per routing edge.

    The plan is each agent's smallest source (``_first``, itself or a
    sender) plus the remaining (target, source) pairs sorted by target,
    then source (``_dst``, ``_src``): N + |E_L| indices in all.
    ``np.add.at`` applies the pairs in that order, so every sum starts
    from a real value and runs left to right in ascending source order:
    the bits, signed zeros included, of a sequential ascending sum.
    From ``ROW_ADD_WIDTH`` entries per agent, one row add per pair in
    that order gives the same bits without add.at's per-element cost.
    """

    ROW_ADD_WIDTH = 256

    def __init__(self, learning: LearningGraph):
        n = self.num_agents = learning.num_agents
        senders, starts = learning.indices, learning.indptr[:-1]
        self.num_edges = senders.size
        agents = np.arange(n)
        dst = np.repeat(agents, np.diff(learning.indptr))
        unordered = np.zeros(senders.size, dtype=bool)  # at or below its target's previous sender
        unordered[1:] = (dst[1:] == dst[:-1]) & (senders[1:] <= senders[:-1])
        for bad, what in (((senders < 0) | (senders >= n), f"has its sender outside 1..{n}"),
                          (senders == dst, "is a self-pair"),
                          (unordered, "repeats a sender or is out of ascending order")):
            if bad.any():
                k = int(np.argmax(bad))
                raise CommunicationViolation(
                    f"routing edge {senders[k] + 1} -> {dst[k] + 1} {what}")
        self.total_messages = 0
        self.episodes_completed = 0
        self._epoch: int | None = None
        self._exchanges = 0

        # each agent's sources are its senders with itself slotted in;
        # the first of them starts its sum and the rest, one per
        # sender, keep the senders' targets
        src = np.insert(senders, starts + np.bincount(dst[senders < dst], minlength=n), agents)
        head = starts + agents
        self._first, self._src, self._dst = src[head], np.delete(src, head), dst
        self._flat_dst: dict[int, np.ndarray] = {}  # ``_dst`` per trailing width, built once

    def begin_episode(self, epoch: int) -> None:
        if self._epoch is not None:
            raise CommunicationViolation(f"episode {self._epoch} still open")
        self._epoch = epoch
        self._exchanges = 0

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Assembled local values of an (N, ...) array whose entry j - 1
        is agent j's payload; same shape out."""
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape[:1] != (self.num_agents,):
            raise ValueError(f"payload has shape {values.shape}, expected "
                             f"{self.num_agents} agent entries first")
        hat = values[self._first]
        width = values[0].size  # entries per agent
        if width >= self.ROW_ADD_WIDTH:
            for dst, src in zip(self._dst.tolist(), self._src.tolist()):
                hat[dst] += values[src]
            return hat
        idx = self._dst
        if hat.ndim > 1:  # one flat index per (pair, trailing entry): add.at's fast 1-D path
            if width not in self._flat_dst:
                self._flat_dst[width] = (idx[:, None] * width + np.arange(width)).ravel()
            idx = self._flat_dst[width]
        np.add.at(hat.reshape(-1), idx, values[self._src].reshape(-1))
        return hat

    def exchange(self, values: np.ndarray) -> np.ndarray:
        """Run the episode's one exchange on an (N, ...) payload (entry
        j - 1 is agent j's outgoing message) and return the assembled
        local values."""
        if self._epoch is None:
            raise CommunicationViolation("no episode in progress")
        hat = self.gather(values)
        self._exchanges += 1
        return hat

    def finish_episode(self) -> int:
        if self._epoch is None:
            raise CommunicationViolation("no episode in progress")
        if self._exchanges != 1:
            raise CommunicationViolation(
                f"episode {self._epoch} ran {self._exchanges} exchanges, expected exactly 1")
        self.total_messages += self.num_edges
        self.episodes_completed += 1
        self._epoch = None
        return self.num_edges


@dataclass(frozen=True)
class RunTable:
    """One run, one row per episode: the columns of its CSV.  A table
    read for a summary only leaves the per-agent columns out (None)."""

    epochs: np.ndarray                # (K,)
    values: np.ndarray | None         # (K, N) per-agent observed values
    global_values: np.ndarray         # (K,) sums of the observed values
    grad_norms: np.ndarray | None     # (K, N)
    messages: np.ndarray              # (K,)


class WarehouseEvaluator:
    """Adapter giving the training loop one-episode value feedback from
    warehouse rollouts.  Two evaluations with the same noise trace see
    the same realized randomness."""

    def __init__(self, env: WarehouseEnv, policy: RbfPolicy, discount: float = 1.0):
        if policy.graph != env.graph:
            raise ValueError("policy and environment are built on different graphs")
        self.env, self.policy, self.discount = env, policy, discount
        self.layout, self.num_agents = policy.layout, env.num_agents

    def evaluate(self, theta: np.ndarray, noise) -> np.ndarray:
        return simulate_rollout(self.env, self.policy.bind(theta), self.discount,
                                noise_trace=noise).returns


def feedback(scope: str, observed: np.ndarray, assembled: np.ndarray) -> np.ndarray:
    """The values the agents scale their probes by, agent-first: the
    assembled local values (distributed), or for every agent the sum of
    all observed values (centralized).  Trailing axes ride along."""
    if scope == "centralized":
        return np.broadcast_to(observed.sum(axis=0), observed.shape)
    return assembled


def estimate(cfg: LearnerConfig, values: np.ndarray, reference, u: np.ndarray,
             layout: BlockLayout) -> np.ndarray:
    """The flavor's gradient estimate from the episode's feedback
    ``values``.  ``reference`` is the baseline feedback (two-point) or
    the previous episode's feedback (residual); one-point ignores it."""
    if cfg.flavor == "two_point":
        return two_point(values, reference, u, cfg.delta, layout)
    if cfg.flavor == "residual":
        return residual(values, reference, u, cfg.delta, layout)
    return one_point(values, u, cfg.delta, layout)


def run_episode(theta: np.ndarray, evaluator, cfg: LearnerConfig, bus: MessageBus,
                table: RunTable, epoch: int, *, perturbation: np.ndarray, noise,
                previous: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One learning episode under the joint probe ``perturbation`` and the
    realized ``noise``, written to row ``epoch`` of ``table``.  Returns the
    updated joint parameter and the feedback values that scaled the probe.
    ``previous`` is the previous episode's feedback (zeros before the
    first): the residual flavor subtracts it, the others ignore it."""
    layout: BlockLayout = evaluator.layout
    n = evaluator.num_agents
    u = perturbation

    try:
        w_pert = np.asarray(evaluator.evaluate(theta + cfg.delta * u, noise), dtype=float)
        if cfg.flavor == "two_point":
            w_base = np.asarray(evaluator.evaluate(theta, noise), dtype=float)
            payload = np.empty((n, 2))
            payload[:, 0], payload[:, 1] = w_pert, w_base
        else:
            w_base = None
            payload = w_pert
    except ValueError as exc:
        # a runaway step can leave parameters finite yet large enough to
        # overflow the allocation scores; that is divergence, not a bug
        if np.abs(theta).max(initial=0.0) <= 1e100:
            raise
        raise TrainingDiverged(
            f"evaluation failed at epoch {epoch} with parameter magnitude "
            f"{np.abs(theta).max():.3g} ({cfg.scope} {cfg.flavor}): {exc}") from exc

    bus.begin_episode(epoch)
    hat = bus.exchange(payload)
    count = bus.finish_episode()
    hat_pert = hat if w_base is None else hat[:, 0]

    # one (N,) column at a time: a centralized sum over the stacked
    # (N, 2) payload would round differently from N = 8 on
    values = feedback(cfg.scope, w_pert, hat_pert)
    reference = previous if w_base is None else feedback(cfg.scope, w_base, hat[:, 1])
    g = estimate(cfg, values, reference, u, layout)

    with np.errstate(over="ignore", invalid="ignore"):  # guard below turns overflow into an abort
        theta_next = theta + cfg.step_size * g
    if np.count_nonzero(np.isfinite(theta_next)) < theta_next.size:
        bad = [i for i in range(1, n + 1)
               if not np.isfinite(layout.block(theta_next, i)).all()]
        raise TrainingDiverged(
            f"non-finite parameters for agents {bad} after epoch {epoch} "
            f"({cfg.scope} {cfg.flavor}, step_size {cfg.step_size})")

    table.values[epoch], table.grad_norms[epoch] = w_pert, layout.block_norms(g)
    table.global_values[epoch], table.messages[epoch] = w_pert.sum(), count
    return theta_next, values


def train(theta0: np.ndarray, evaluator, cfg: LearnerConfig, bus: MessageBus,
          perturbations: Sequence[np.ndarray], noise_traces: Sequence
          ) -> tuple[RunTable, np.ndarray]:
    """Run one episode per (joint probe, noise trace) pair of the shared
    streams, an (E, d) probe array and E noises, and return the run's
    table and the final parameter."""
    epochs = len(perturbations)
    if epochs != len(noise_traces) or epochs == 0:
        raise ValueError(f"need equally many perturbations and noise traces, at least one: "
                         f"got {epochs} perturbations and {len(noise_traces)} noise traces")
    theta = np.array(theta0, dtype=float)
    if theta.shape != (evaluator.layout.total_dim,):
        raise ValueError(f"theta0 has shape {theta.shape}, "
                         f"expected ({evaluator.layout.total_dim},)")
    n = evaluator.num_agents
    values = np.zeros(n)
    table = RunTable(epochs=np.arange(epochs, dtype=np.int64), values=np.empty((epochs, n)),
                     global_values=np.empty(epochs), grad_norms=np.empty((epochs, n)),
                     messages=np.empty(epochs, dtype=np.int64))
    for k, (u, noise) in enumerate(zip(perturbations, noise_traces)):
        theta, values = run_episode(theta, evaluator, cfg, bus, table, k, perturbation=u,
                                    noise=noise, previous=values)
    return table, theta


# -- step-size / smoothing schedule ----------------------------------


@dataclass(frozen=True)
class ScheduleResult:
    delta: float
    eta: float
    epochs_required: int | None


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _finite_or_error(formula, what: str) -> float:
    """``formula()``, or a ValueError naming ``what`` when it overflows,
    divides by an underflowed zero or comes out non-finite."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{what} is not a finite number")
    return value


def schedule_bound_constant(j_star: float, j_smoothed_init: float, lipschitz: float,
                            value_max: float, sigma_max: float) -> float:
    """Constant B entering the epoch-count requirement:
    J* - J^delta(theta^0) + L^4 (J_0^2 + sigma_0^2) / 2."""
    _require_finite(j_star=j_star, j_smoothed_init=j_smoothed_init, lipschitz=lipschitz,
                    value_max=value_max, sigma_max=sigma_max)
    return _finite_or_error(
        lambda: j_star - j_smoothed_init
        + lipschitz ** 4 * (value_max ** 2 + sigma_max ** 2) / 2.0,
        f"the bound constant B for value_max {value_max} and lipschitz {lipschitz}")


def accuracy_schedule(eps: float, lipschitz: float, total_dim: int, epochs: int,
                      bound_b: float | None = None) -> ScheduleResult:
    """Smoothing radius and step size guaranteeing an eps-accurate
    stationary point of the smoothed objective:

        delta = eps / (L sqrt(d)),   eta = eps^1.5 / (d^1.5 sqrt(K)),

    plus, when the bound constant B is supplied, the number of epochs
    K >= d^3 B^2 / eps^5 required for the guarantee."""
    _require_finite(eps=eps, lipschitz=lipschitz)
    if bound_b is not None:
        _require_finite(bound_b=bound_b)
    if eps <= 0.0 or lipschitz <= 0.0:
        raise ValueError(f"eps and lipschitz must be > 0, got {eps}, {lipschitz}")
    if total_dim < 1 or epochs < 1:
        raise ValueError(f"total_dim and epochs must be >= 1, got {total_dim}, {epochs}")
    delta = _finite_or_error(lambda: eps / (lipschitz * math.sqrt(total_dim)),
                             f"delta for eps {eps} and lipschitz {lipschitz}")
    what = f"eta for eps {eps}, dimension {total_dim} and {epochs} epochs"
    eta = _finite_or_error(lambda: eps ** 1.5 / (total_dim ** 1.5 * math.sqrt(epochs)), what)
    if eta == 0.0:
        raise ValueError(f"{what} underflows to zero")
    required = None
    if bound_b is not None:
        required = math.ceil(_finite_or_error(
            lambda: total_dim ** 3 * bound_b ** 2 / eps ** 5,
            f"the epoch requirement d^3 B^2 / eps^5 for B = {bound_b}, eps = {eps}"))
    return ScheduleResult(delta, eta, required)
