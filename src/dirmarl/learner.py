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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import LearningGraph
from .oracles import OracleConfig, one_point, residual, sample_perturbation, two_point
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
    """

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
        idx = self._dst
        if hat.ndim > 1:  # one flat index per (pair, trailing entry): add.at's fast 1-D path
            width = hat[0].size
            idx = (idx[:, None] * width + np.arange(width)).ravel()
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


class WarehouseEvaluator:
    """Adapter giving the training loop one-episode value feedback from
    warehouse rollouts.  Two evaluations with the same noise trace see
    the same realized randomness."""

    def __init__(self, env: WarehouseEnv, policy: RbfPolicy, horizon: int,
                 discount: float = 1.0):
        if policy.graph != env.graph:
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
                residual_state: np.ndarray | None = None,
                ) -> tuple[np.ndarray, EpisodeRecord, np.ndarray]:
    """One full learning episode; returns the updated joint parameter,
    the episode record, and the residual carry state: the per-agent
    values the residual flavor subtracts next episode (zeros before the
    first), passed through unchanged by the other flavors."""
    layout: BlockLayout = evaluator.layout
    ocfg = cfg.oracle
    n = evaluator.num_agents

    if rng is None and (perturbation is None or noise is None):
        raise ValueError("run_episode needs an rng when perturbation or noise is not supplied")
    u = perturbation if perturbation is not None else sample_perturbation(layout, rng)
    if noise is None:
        noise = evaluator.draw_noise(rng)
    if residual_state is None:
        residual_state = np.zeros(n)

    try:
        w_pert = np.asarray(evaluator.evaluate(theta + ocfg.delta * u, noise), dtype=float)
        if ocfg.flavor == "two_point":
            w_base = np.asarray(evaluator.evaluate(theta, noise), dtype=float)
            payload = np.stack((w_pert, w_base), axis=1)
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
            f"{np.abs(theta).max():.3g} ({ocfg.scope} {ocfg.flavor}): {exc}") from exc

    bus.begin_episode(epoch)
    hat = bus.exchange(payload)
    count = bus.finish_episode()
    hat_pert = hat if w_base is None else hat[:, 0]

    if ocfg.scope == "centralized":
        vals_pert = np.full(n, w_pert.sum())
        vals_base = np.full(n, w_base.sum()) if w_base is not None else None
    else:
        vals_pert = hat_pert
        vals_base = hat[:, 1] if w_base is not None else None

    if ocfg.flavor == "one_point":
        g = one_point(vals_pert, u, ocfg.delta, layout)
    elif ocfg.flavor == "two_point":
        g = two_point(vals_pert, vals_base, u, ocfg.delta, layout)
    else:
        g = residual(vals_pert, residual_state, u, ocfg.delta, layout)
        residual_state = vals_pert

    with np.errstate(over="ignore", invalid="ignore"):  # guard below turns overflow into an abort
        theta_next = theta + cfg.step_size * g
    if not np.isfinite(theta_next).all():
        bad = [i for i in range(1, n + 1)
               if not np.isfinite(layout.block(theta_next, i)).all()]
        raise TrainingDiverged(
            f"non-finite parameters for agents {bad} after epoch {epoch} "
            f"({ocfg.scope} {ocfg.flavor}, step_size {cfg.step_size})")

    record = EpisodeRecord(
        epoch=epoch,
        observed_values=w_pert,
        local_values=hat_pert,
        global_value=float(w_pert.sum()),
        gradient_norms=layout.block_norms(g),
        message_count=count,
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
    state = np.zeros(evaluator.num_agents)
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
