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
learning graph and checked against E_L at construction, so no value
can travel outside the routing graph; every episode runs exactly one
exchange and counts one message per edge.  Centralized variants still
run the same exchange (so their communication footprint is identical
and audited), but feed the oracles the directly-computed global value
instead of the local ones; they exist as the comparison baseline.

The two-point flavor re-evaluates the unperturbed policy under the
episode's exact noise trace and ships both values in the same single
message per edge, so the communication contract is flavor-independent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import LearningGraph
from .oracles import (
    GradientEstimate,
    OracleConfig,
    ResidualState,
    one_point,
    residual,
    sample_perturbation,
    two_point,
)
from .policy import BlockLayout, RbfPolicy
from .warehouse import WarehouseEnv, simulate_rollout

ALGORITHMS = (
    "distributed_one_point",
    "centralized_one_point",
    "distributed_two_point",
    "centralized_two_point",
    "distributed_residual",
    "centralized_residual",
)


def parse_algorithm(name: str, delta: float) -> OracleConfig:
    """Map an algorithm name like ``distributed_two_point`` onto an
    oracle configuration."""
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")
    scope, flavor = name.split("_", 1)
    return OracleConfig(delta=delta, flavor=flavor, scope=scope)


class CommunicationViolation(RuntimeError):
    """A value was sent outside the reward-routing graph, or an edge
    was not used exactly once in an episode."""


class TrainingDiverged(RuntimeError):
    """Parameters or gradient turned non-finite; training aborts."""


class MessageBus:
    """Static routing plan for the per-episode reward exchange.

    Agent i's local value is its own value plus those of its E_L
    in-neighbours, added in ascending agent order.  The plan is built
    once and checked against ``learning.edges`` at construction; each
    episode then runs exactly one exchange along it, which counts one
    message per routing edge.

    Agents are stored by source count, descending, so the agents that
    still have a p-th source form a prefix of that order and one
    gathered add serves all of them.  The plan holds |E_L| + N indices,
    never a (max sources x N) table.
    """

    def __init__(self, learning: LearningGraph):
        n = self.num_agents = learning.num_agents
        sources = [sorted(set(learning.in_neighbors[i]) | {i}) for i in range(1, n + 1)]
        plan = {(j, i) for i, src in enumerate(sources, 1) for j in src if j != i}
        for bad, what in ((plan - learning.edges, "is outside E_L"),
                          (learning.edges - plan, "is in E_L but not in the plan")):
            if bad:
                j, i = min(bad)
                raise CommunicationViolation(f"routing edge {j} -> {i} {what}")
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(plan))
        self.total_messages = 0
        self.episodes_completed = 0
        self._epoch: int | None = None
        self._exchanges = 0

        order = sorted(range(n), key=lambda a: -len(sources[a]))
        self._order = np.array(order, dtype=np.intp)
        gathers, m = [], n
        for p in range(len(sources[order[0]])):
            while len(sources[order[m - 1]]) <= p:
                m -= 1
            gathers.append(np.array([sources[a][p] - 1 for a in order[:m]], dtype=np.intp))
        self._gathers = tuple(gathers)

    @property
    def expected_messages(self) -> int:
        """Messages per episode: one per routing edge."""
        return len(self.edges)

    def begin_episode(self, epoch: int) -> None:
        if self._epoch is not None:
            raise CommunicationViolation(f"episode {self._epoch} still open")
        self._epoch = epoch
        self._exchanges = 0

    def exchange(self, values: np.ndarray) -> np.ndarray:
        """Run the episode's exchange on a (k, N) payload matrix
        (column j is agent j's outgoing payload) and return the (k, N)
        assembled local values."""
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[1] != self.num_agents:
            raise ValueError(f"payload has {values.shape[1]} columns, expected {self.num_agents}")
        if self._epoch is None:
            raise CommunicationViolation("no episode in progress")
        acc = values[:, self._gathers[0]]
        for idx in self._gathers[1:]:
            acc[:, :idx.size] += values[:, idx]
        hat = np.empty_like(values)
        hat[:, self._order] = acc
        self._exchanges += 1
        return hat

    def finish_episode(self) -> int:
        if self._epoch is None:
            raise CommunicationViolation("no episode in progress")
        if self._exchanges != 1:
            raise CommunicationViolation(
                f"episode {self._epoch} ran {self._exchanges} exchanges, expected exactly 1")
        self.total_messages += len(self.edges)
        self.episodes_completed += 1
        self._epoch = None
        return len(self.edges)


@dataclass(frozen=True)
class LearnerConfig:
    step_size: float
    num_epochs: int
    oracle: OracleConfig

    def __post_init__(self):
        if self.step_size < 0.0:
            raise ValueError(f"step_size must be >= 0, got {self.step_size}")
        if self.num_epochs < 1:
            raise ValueError(f"num_epochs must be >= 1, got {self.num_epochs}")


@dataclass(frozen=True)
class EpisodeRecord:
    epoch: int
    observed_values: np.ndarray   # W_i of the perturbed episode, (N,)
    local_values: np.ndarray      # assembled hat-W_i, (N,)
    global_value: float           # sum of observed values
    gradient_norms: np.ndarray    # per-agent ||g_i||, (N,)
    message_count: int
    wall_clock: float


class WarehouseEvaluator:
    """Adapter giving the training loop one-episode value feedback from
    warehouse rollouts.  Two evaluations with the same noise trace see
    the same realized randomness."""

    def __init__(self, env: WarehouseEnv, policy: RbfPolicy, horizon: int,
                 discount: float = 1.0):
        if policy.graph is not env.graph and policy.graph.edges != env.graph.edges:
            raise ValueError("policy and environment are built on different graphs")
        self.env = env
        self.policy = policy
        self.horizon = horizon
        self.discount = discount
        self.layout = policy.layout
        self.num_agents = env.num_agents

    def draw_noise(self, rng: np.random.Generator):
        return self.env.draw_noise_trace(self.horizon, rng)

    def evaluate(self, theta: np.ndarray, noise) -> np.ndarray:
        ro = simulate_rollout(self.env, self.policy.bind(theta), self.horizon,
                              self.discount, noise_trace=noise)
        return ro.returns


def run_episode(theta: np.ndarray, evaluator, cfg: LearnerConfig, bus: MessageBus,
                epoch: int, rng: np.random.Generator | None = None, *,
                perturbation: np.ndarray | None = None, noise=None,
                residual_state: ResidualState | None = None,
                ) -> tuple[np.ndarray, EpisodeRecord, ResidualState]:
    """One full learning episode; returns the updated joint parameter,
    the episode record, and the advanced residual carry state."""
    layout: BlockLayout = evaluator.layout
    ocfg = cfg.oracle
    n = evaluator.num_agents
    started = time.perf_counter()

    if rng is None and (perturbation is None or noise is None):
        raise ValueError("run_episode needs an rng when perturbation or noise is not supplied")
    u = perturbation if perturbation is not None else sample_perturbation(layout, rng)
    if noise is None:
        noise = evaluator.draw_noise(rng)
    if residual_state is None:
        residual_state = ResidualState.initial(n)

    try:
        w_pert = np.asarray(evaluator.evaluate(theta + ocfg.delta * u, noise), dtype=float)
        if ocfg.flavor == "two_point":
            w_base = np.asarray(evaluator.evaluate(theta, noise), dtype=float)
            payload = np.stack([w_pert, w_base])
        else:
            w_base = None
            payload = w_pert[None, :]
    except ValueError as exc:
        # a runaway step can leave parameters finite yet large enough to
        # overflow the allocation scores; that is divergence, not a bug
        if np.abs(theta).max(initial=0.0) <= 1e100:
            raise
        raise TrainingDiverged(
            f"evaluation failed at epoch {epoch} with parameter magnitude "
            f"{np.abs(theta).max():.3g} ({ocfg.scope} {ocfg.flavor}): {exc}") from exc

    bus.begin_episode(epoch)
    hat = bus.exchange(payload)
    count = bus.finish_episode()
    hat_pert = hat[0]

    if ocfg.scope == "centralized":
        vals_pert = np.full(n, w_pert.sum())
        vals_base = np.full(n, w_base.sum()) if w_base is not None else None
    else:
        vals_pert = hat_pert
        vals_base = hat[1] if w_base is not None else None

    if ocfg.flavor == "one_point":
        est = one_point(vals_pert, u, ocfg.delta, layout)
    elif ocfg.flavor == "two_point":
        est = two_point(vals_pert, vals_base, u, ocfg.delta, layout)
    else:
        est, residual_state = residual(vals_pert, residual_state, u, ocfg.delta, layout)

    with np.errstate(over="ignore", invalid="ignore"):  # guard below turns overflow into an abort
        theta_next = theta + cfg.step_size * est.flat
    if not np.all(np.isfinite(theta_next)):
        bad = [i for i in range(1, n + 1)
               if not np.all(np.isfinite(layout.block(theta_next, i)))]
        raise TrainingDiverged(
            f"non-finite parameters for agents {bad} after epoch {epoch} "
            f"({ocfg.scope} {ocfg.flavor}, step_size {cfg.step_size})")

    record = EpisodeRecord(
        epoch=epoch,
        observed_values=w_pert,
        local_values=hat_pert,
        global_value=float(w_pert.sum()),
        gradient_norms=est.block_norms(),
        message_count=count,
        wall_clock=time.perf_counter() - started,
    )
    return theta_next, record, residual_state


@dataclass
class TrainResult:
    records: list[EpisodeRecord]
    theta_final: np.ndarray
    bus: MessageBus


def train(theta0: np.ndarray, evaluator, cfg: LearnerConfig, bus: MessageBus,
          rng: np.random.Generator | None = None, *,
          perturbations: Sequence[np.ndarray] | None = None,
          noise_traces: Sequence | None = None,
          on_episode=None) -> TrainResult:
    """Run ``cfg.num_epochs`` episodes.  Shared streams for
    cross-algorithm comparisons are passed as ``perturbations`` (one
    joint probe per epoch) and ``noise_traces``; anything not supplied
    is drawn from ``rng``.  ``on_episode(epoch, theta, record)`` runs
    after every update (checkpointing, progress)."""
    if perturbations is not None and len(perturbations) < cfg.num_epochs:
        raise ValueError(f"need {cfg.num_epochs} shared perturbations, got {len(perturbations)}")
    if noise_traces is not None and len(noise_traces) < cfg.num_epochs:
        raise ValueError(f"need {cfg.num_epochs} shared noise traces, got {len(noise_traces)}")
    theta = np.array(theta0, dtype=float)
    if theta.shape != (evaluator.layout.total_dim,):
        raise ValueError(f"theta0 has shape {theta.shape}, "
                         f"expected ({evaluator.layout.total_dim},)")
    state = ResidualState.initial(evaluator.num_agents)
    records: list[EpisodeRecord] = []
    for k in range(cfg.num_epochs):
        theta, rec, state = run_episode(
            theta, evaluator, cfg, bus, k, rng,
            perturbation=None if perturbations is None else perturbations[k],
            noise=None if noise_traces is None else noise_traces[k],
            residual_state=state)
        records.append(rec)
        if on_episode is not None:
            on_episode(k, theta, rec)
    return TrainResult(records, theta, bus)


# -- step-size / smoothing schedule ----------------------------------


@dataclass(frozen=True)
class ScheduleResult:
    delta: float
    eta: float
    epochs_required: int | None


def schedule_bound_constant(j_star: float, j_smoothed_init: float, lipschitz: float,
                            value_max: float, sigma_max: float) -> float:
    """Constant B entering the epoch-count requirement:
    J* - J^delta(theta^0) + L^4 (J_0^2 + sigma_0^2) / 2."""
    return j_star - j_smoothed_init + lipschitz ** 4 * (value_max ** 2 + sigma_max ** 2) / 2.0


def accuracy_schedule(eps: float, lipschitz: float, total_dim: int, epochs: int,
                      bound_b: float | None = None) -> ScheduleResult:
    """Smoothing radius and step size guaranteeing an eps-accurate
    stationary point of the smoothed objective:

        delta = eps / (L sqrt(d)),   eta = eps^1.5 / (d^1.5 sqrt(K)),

    plus, when the bound constant B is supplied, the number of epochs
    K >= d^3 B^2 / eps^5 required for the guarantee."""
    if eps <= 0.0 or lipschitz <= 0.0:
        raise ValueError(f"eps and lipschitz must be > 0, got {eps}, {lipschitz}")
    if total_dim < 1 or epochs < 1:
        raise ValueError(f"total_dim and epochs must be >= 1, got {total_dim}, {epochs}")
    delta = eps / (lipschitz * math.sqrt(total_dim))
    eta = eps ** 1.5 / (total_dim ** 1.5 * math.sqrt(epochs))
    required = None
    if bound_b is not None:
        required = math.ceil(total_dim ** 3 * bound_b ** 2 / eps ** 5)
    return ScheduleResult(delta, eta, required)
