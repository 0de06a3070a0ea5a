"""Warehouse resource-allocation environment on a coordination graph.

Each agent i holds a stock m_i(t) and, each step, ships fractions of
it along its outgoing edges while receiving its in-neighbors'
shipments and serving a stochastic demand:

    m_i(t+1) = m_i(t) - sum_{j in out(i)} a_ij(t) m_i(t)
               + sum_{j in in(i)} a_ji(t) m_j(t) - d_i(t)

    d_i(t) = A_i (1 - sin(w_it * t)) + w_it,   w_it ~ N(0, sigma_w^2)

Reward is 0 while the pre-transition stock is non-negative and
-m_i(t)^2 once it backlogs.  Agent i observes the stocks of its closed
in-neighborhood plus its own realized same-step demand, so the
observation has |in(i)| + 2 entries.

Randomness is reified as a noise trace, one (T+1, N) array drawn ahead
of the episode and its only source of randomness: row 0 is the initial
stock jitter and rows 1..T the demand shocks.  A rollout replays its
trace bit-identically, which is what the learner's paired evaluations
and the decoupling checks rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .graphs import CoordinationGraph


class RolloutError(RuntimeError):
    """Episode aborted: non-finite state or a broken action contract."""


@dataclass(frozen=True)
class WarehouseConfig:
    graph: CoordinationGraph
    initial_stock_mean: float = 1.0
    initial_stock_jitter: float = 0.01
    demand_amplitude: float | Sequence[float] = 0.2
    demand_noise_std: float = 0.1

    def __post_init__(self):
        if not math.isfinite(self.initial_stock_mean):
            raise ValueError(f"initial_stock_mean must be finite, got {self.initial_stock_mean}")
        if not self.initial_stock_jitter >= 0.0:  # NaN fails every comparison
            raise ValueError(f"initial_stock_jitter must be >= 0, got {self.initial_stock_jitter}")
        if not math.isfinite(2.0 * self.initial_stock_jitter):  # the span of its uniform draw
            raise ValueError(f"initial_stock_jitter {self.initial_stock_jitter} is too large: "
                             "its span 2 * initial_stock_jitter is not a finite number")
        if not self.demand_noise_std >= 0.0:
            raise ValueError(f"demand_noise_std must be >= 0, got {self.demand_noise_std}")
        n, amp = self.graph.num_agents, self.amplitude
        if amp.shape != (n,):
            raise ValueError(f"demand_amplitude must be scalar or length {n}, got shape {amp.shape}")
        floor = self.initial_stock_mean - self.initial_stock_jitter
        inside = (amp > 0.0) & (amp < floor)
        if not inside.all():
            bad = int(np.argmin(inside)) + 1
            raise ValueError(
                f"demand amplitude {amp[bad - 1]} for agent {bad} must lie in (0, {floor}): "
                "demand_amplitude must stay below initial_stock_mean - initial_stock_jitter "
                "so demand never exceeds the worst-case initial stock")

    @cached_property
    def amplitude(self) -> np.ndarray:
        """``demand_amplitude`` as one float per agent."""
        amp = np.asarray(self.demand_amplitude, dtype=float)
        return np.full(self.graph.num_agents, float(amp)) if amp.ndim == 0 else amp


class WarehouseEnv:
    """WarehouseConfig plus everything precomputed for fast stepping."""

    def __init__(self, config: WarehouseConfig):
        self.config, self.graph = config, config.graph
        n = self.num_agents = config.graph.num_agents

        # Edges ordered by (source, target): fixed summation order.
        src, dst = self._e_src, self._e_dst = config.graph.edge_array
        # Gather index of the compact (S,) observation, S = 2N + E, from
        # concatenate((stocks, demands)): agent by agent, the observed stocks
        # (in-neighbours and the agent itself, ascending), then its demand.
        agents = np.arange(n)
        who = np.concatenate((dst, agents, agents))
        seen = np.concatenate((src, agents, n + agents))
        self._obs_gather = seen[np.lexsort((seen, who))]

        # Edge e of source s is slot e + s + 1 of the compact allocation:
        # each agent's slots are its retained fraction, then its out-edges,
        # so the non-self slots in slot order are the edges in order.
        self._e_slot = np.arange(src.size) + src + 1

    # -- randomness -------------------------------------------------

    def draw_noise_trace(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        """One episode's (horizon + 1, N) noise trace: the initial stock
        jitter, then the demand shocks of every step."""
        jitter, std = self.config.initial_stock_jitter, self.config.demand_noise_std
        trace = np.zeros((horizon + 1, self.num_agents))
        if jitter != 0.0:
            trace[0] = rng.uniform(-jitter, jitter, size=self.num_agents)
        if std != 0.0:
            trace[1:] = rng.normal(0.0, std, size=(horizon, self.num_agents))
        return trace

    # -- dynamics ---------------------------------------------------

    def initial_stocks(self, trace: np.ndarray) -> np.ndarray:
        return self.config.initial_stock_mean + trace[0]

    def demand_row(self, t: int, w_row: np.ndarray) -> np.ndarray:
        # A (1 - sin(w t)) + w, each operation in place on one fresh array
        d = w_row * t
        np.sin(d, out=d)
        np.subtract(1.0, d, out=d)
        d *= self.config.amplitude
        d += w_row
        return d

    def observation_matrix(self, stocks: np.ndarray, demands: np.ndarray) -> np.ndarray:
        """The compact (S,) observation: each agent's observed stocks, then its demand."""
        return np.concatenate((stocks, demands))[self._obs_gather]

    def validate_allocations(self, frac: np.ndarray, where: str = "") -> None:
        # (E,) out-edge fractions.  Fast accept; a graph without edges has
        # none.  NaN fails every comparison, so it counts as outside [0, 1];
        # the left-fold sums are taken only when every fraction lies inside.
        if (np.minimum.reduce(frac, initial=0.0) >= -1e-12
                and np.maximum.reduce(frac, initial=0.0) <= 1.0 + 1e-12):
            sums = np.bincount(self._e_src, weights=frac, minlength=self.num_agents)
            if np.maximum.reduce(sums) <= 1.0 + 1e-12:
                return
            bad = int(np.argmax(sums > 1.0 + 1e-12)) + 1
            raise RolloutError(f"agent {bad} ships more than its whole stock "
                               f"(fraction sum {sums[bad - 1]}){where}")
        inside = (frac >= -1e-12) & (frac <= 1.0 + 1e-12)
        bad = int(self._e_src[np.argmin(inside)]) + 1
        raise RolloutError(f"agent {bad} allocation fraction outside [0, 1]{where}")

    def apply_transition(self, stocks: np.ndarray, frac: np.ndarray,
                         demands: np.ndarray) -> np.ndarray:
        """Next stocks from the (E,) out-edge fractions.  Overflow
        surfaces as inf (numpy warns unless the caller silences it, as
        ``simulate_rollout`` does); the rollout's finiteness guard turns
        it into a diagnostic abort."""
        shipped = frac * stocks[self._e_src]
        outflow = np.bincount(self._e_src, weights=shipped, minlength=self.num_agents)
        inflow = np.bincount(self._e_dst, weights=shipped, minlength=self.num_agents)
        # ((stocks - outflow) + inflow) - demands; the first difference is a
        # fresh float array whatever the dtype of ``stocks``
        nxt = stocks - outflow
        nxt += inflow
        nxt -= demands
        return nxt


def step_rewards(stocks: np.ndarray) -> np.ndarray:
    """Backlog penalty on the pre-transition stock: zero when
    non-negative, -m^2 otherwise.  An overflowing square is -inf (numpy
    warns unless the caller silences it, as ``simulate_rollout`` does)."""
    return np.where(stocks >= 0.0, 0.0, -stocks * stocks)


@dataclass(frozen=True)
class Rollout:
    """What one episode produced."""

    stocks: np.ndarray        # (T+1, N); the last row is the terminal state
    rewards: np.ndarray       # (T, N)
    returns: np.ndarray       # (N,) discounted reward sums


def simulate_rollout(env: WarehouseEnv, policy, discount: float = 1.0, *,
                     noise_trace: np.ndarray) -> Rollout:
    """Run one episode under the realized randomness ``noise_trace``, a
    (T+1, N) trace whose length sets the horizon T.
    ``policy.act_matrix(obs)`` maps the compact (S,) observation to
    the compact (K,) allocation, each agent's retained fraction first;
    the step reads its out-edge fractions once, in edge order."""
    n, horizon = env.num_agents, len(noise_trace) - 1
    if not 0.0 < discount <= 1.0:
        raise ValueError(f"discount must lie in (0, 1], got {discount}")
    if noise_trace.ndim != 2 or horizon < 1 or noise_trace.shape[1] != n:
        raise ValueError(f"noise trace has shape {noise_trace.shape}, expected (T + 1, {n}) "
                         "with horizon T >= 1")
    stocks, rewards = np.empty((horizon + 1, n)), np.empty((horizon, n))
    stocks[0] = m = env.initial_stocks(noise_trace)
    # The step functions, looked up once per rollout (and at call time,
    # so that a wrapper installed on the class or module is the one used).
    demand_row, observe, act = env.demand_row, env.observation_matrix, policy.act_matrix
    transition, reward = env.apply_transition, step_rewards
    e_slot = env._e_slot
    # Overflow may surface as inf in rewards and stocks; the guard below
    # turns a non-finite stock into a named abort instead of a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, w_row in enumerate(noise_trace[1:]):
            d = demand_row(t, w_row)
            frac = act(observe(m, d))[e_slot]
            env.validate_allocations(frac, where=f" at step {t}")
            rewards[t] = reward(m)
            m = transition(m, frac, d)
            if np.count_nonzero(np.isfinite(m)) < n:
                bad = np.flatnonzero(~np.isfinite(m)) + 1
                raise RolloutError(f"non-finite stock for agents {bad.tolist()} after step {t}")
            stocks[t + 1] = m

    return Rollout(stocks, rewards, discount ** np.arange(horizon) @ rewards)
