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

Randomness is reified as a NoiseTrace (initial jitter plus every
demand shock), drawn ahead of the episode and its only source of
randomness: a rollout replays its trace bit-identically, which is what
the learner's paired evaluations and the decoupling checks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    fixed_initial_state: bool = False
    clip_demand_noise: bool = False
    shared_demand_noise: bool = False


@dataclass(frozen=True)
class NoiseTrace:
    """Realized randomness of one episode: initial stock jitter (N,)
    and demand shocks (T, N).  Replayable."""

    initial_jitter: np.ndarray
    demand_noise: np.ndarray


class WarehouseEnv:
    """WarehouseConfig plus everything precomputed for fast stepping."""

    def __init__(self, config: WarehouseConfig):
        g = config.graph
        n = g.num_agents
        amp = np.asarray(config.demand_amplitude, dtype=float)
        if amp.ndim == 0:
            amp = np.full(n, float(amp))
        if amp.shape != (n,):
            raise ValueError(f"demand_amplitude must be scalar or length {n}, got shape {amp.shape}")
        floor = config.initial_stock_mean - config.initial_stock_jitter
        if np.any(amp <= 0.0) or np.any(amp >= floor):
            bad = int(np.argmax((amp <= 0.0) | (amp >= floor))) + 1
            raise ValueError(
                f"demand amplitude {amp[bad - 1]} for agent {bad} must lie in (0, {floor}): "
                "demand_amplitude must stay below initial_stock_mean - initial_stock_jitter "
                "so demand never exceeds the worst-case initial stock")
        if config.demand_noise_std < 0.0:
            raise ValueError(f"demand_noise_std must be >= 0, got {config.demand_noise_std}")
        if config.initial_stock_jitter < 0.0:
            raise ValueError(f"initial_stock_jitter must be >= 0, got {config.initial_stock_jitter}")

        self.config = config
        self.graph = g
        self.num_agents = n
        self.amplitude = amp

        # Edges ordered by (source, target): fixed summation order.
        src, dst = self._e_src, self._e_dst = g.edge_array
        self.obs_dims = np.bincount(dst, minlength=n) + 2
        self.num_slots = np.bincount(src, minlength=n) + 1
        self.obs_max = int(self.obs_dims.max())

        # Gather index filling the padded observation matrix from
        # concatenate((stocks, demands, (0.0,))): observed stocks
        # (in-neighbours and the agent itself, ascending), then the
        # agent's own demand, then zero padding.
        agents = np.arange(n)
        who, seen = np.concatenate((dst, agents)), np.concatenate((src, agents))
        order = np.lexsort((seen, who))
        who, seen = who[order], seen[order]
        row_start = np.cumsum(self.obs_dims - 1) - (self.obs_dims - 1)
        self._obs_gather = np.full((n, self.obs_max), 2 * n, dtype=np.intp)
        self._obs_gather[who, np.arange(who.size) - row_start[who]] = seen
        self._obs_gather[agents, self.obs_dims - 1] = n + agents

        # Edge e of source s is slot e + s + 1 of the compact allocation:
        # each agent's slots are its retained fraction, then its out-edges,
        # so the non-self slots in slot order are the edges in order.
        self._e_slot = np.arange(src.size) + src + 1

    # -- randomness -------------------------------------------------

    def draw_noise_trace(self, horizon: int, rng: np.random.Generator) -> NoiseTrace:
        cfg = self.config
        n = self.num_agents
        if cfg.fixed_initial_state or cfg.initial_stock_jitter == 0.0:
            jitter = np.zeros(n)
        else:
            jitter = rng.uniform(-cfg.initial_stock_jitter, cfg.initial_stock_jitter, size=n)
        if cfg.demand_noise_std == 0.0:
            w = np.zeros((horizon, n))
        elif cfg.shared_demand_noise:
            w = np.repeat(rng.normal(0.0, cfg.demand_noise_std, size=(horizon, 1)), n, axis=1)
        else:
            w = rng.normal(0.0, cfg.demand_noise_std, size=(horizon, n))
        if cfg.clip_demand_noise and cfg.demand_noise_std > 0.0:
            lim = 3.0 * cfg.demand_noise_std
            w = np.clip(w, -lim, lim)
        return NoiseTrace(jitter, w)

    def check_trace(self, trace: NoiseTrace, horizon: int) -> None:
        if trace.initial_jitter.shape != (self.num_agents,):
            raise ValueError(f"noise trace jitter has shape {trace.initial_jitter.shape}, "
                             f"expected ({self.num_agents},)")
        if trace.demand_noise.shape != (horizon, self.num_agents):
            raise ValueError(f"noise trace demand shocks have shape {trace.demand_noise.shape}, "
                             f"expected ({horizon}, {self.num_agents})")

    # -- dynamics ---------------------------------------------------

    def initial_stocks(self, trace: NoiseTrace) -> np.ndarray:
        return self.config.initial_stock_mean + trace.initial_jitter

    def demand_row(self, t: int, w_row: np.ndarray) -> np.ndarray:
        return self.amplitude * (1.0 - np.sin(w_row * t)) + w_row

    def observation_matrix(self, stocks: np.ndarray, demands: np.ndarray) -> np.ndarray:
        return np.concatenate((stocks, demands, (0.0,)))[self._obs_gather]

    def validate_allocations(self, frac: np.ndarray, where: str = "") -> None:
        # (E,) out-edge fractions.  Fast accept; a graph without edges has
        # none.  NaN fails every comparison, so it counts as outside [0, 1];
        # the left-fold sums are taken only when every fraction lies inside.
        if frac.min(initial=0.0) >= -1e-12 and frac.max(initial=0.0) <= 1.0 + 1e-12:
            sums = np.bincount(self._e_src, weights=frac, minlength=self.num_agents)
            if sums.max() <= 1.0 + 1e-12:
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
        return stocks - outflow + inflow - demands


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


def simulate_rollout(env: WarehouseEnv, policy, horizon: int, discount: float = 1.0, *,
                     noise_trace: NoiseTrace) -> Rollout:
    """Run one episode under the realized randomness ``noise_trace``.
    ``policy.act_matrix(padded_obs)`` returns the compact (K,)
    allocation, each agent's retained fraction first; the step reads
    its out-edge fractions once, in edge order."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not 0.0 < discount <= 1.0:
        raise ValueError(f"discount must lie in (0, 1], got {discount}")
    env.check_trace(noise_trace, horizon)

    n = env.num_agents
    stocks = np.empty((horizon + 1, n))
    rewards = np.empty((horizon, n))

    m = env.initial_stocks(noise_trace)
    stocks[0] = m
    # Overflow may surface as inf in rewards and stocks; the guard below
    # turns a non-finite stock into a named abort instead of a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            d = env.demand_row(t, noise_trace.demand_noise[t])
            frac = policy.act_matrix(env.observation_matrix(m, d)).take(env._e_slot)
            env.validate_allocations(frac, where=f" at step {t}")
            rewards[t] = step_rewards(m)
            m = env.apply_transition(m, frac, d)
            if not np.isfinite(m).all():
                bad = np.flatnonzero(~np.isfinite(m)) + 1
                raise RolloutError(f"non-finite stock for agents {bad.tolist()} after step {t}")
            stocks[t + 1] = m

    weights = discount ** np.arange(horizon)
    returns = weights @ rewards
    return Rollout(stocks, rewards, returns)
