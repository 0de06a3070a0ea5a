"""RBF-softmax allocation policies with per-agent parameter blocks.

Agent i observes o_i (its in-neighborhood stocks plus its realized
demand) and allocates fractions of its stock across its outgoing edges
and itself.  Scores are linear in radial features:

    z_ij = sum_l ||o_i - c_il||^2 * theta_ij(l)

over n_c centers c_il placed on the diagonal of the observation box,
and the allocation is a_ij = exp(-z_ij) / sum_j' exp(-z_ij').  The
softmax runs over slots [self] + sorted out-neighbors, so the self
slot is the retained fraction and each agent's block has dimension
n_c * (|out-neighbors| + 1).

The joint parameter is a flat vector cut into per-agent blocks by a
BlockLayout; all learning updates and perturbations act on the flat
view, and block views always alias it.

A sink (no out-edges) has only its self slot, so its allocation is
exp(0)/exp(0) = 1: its block is never scored.  ``act_matrix`` gathers
the compact (S,) observation of the shipping agents, agent after agent,
from the environment's (2N,) state, scores only their K valid (agent,
slot) pairs, whose rows of the flat vector read as (N + |E|, n_c)
``bind`` takes once, and returns the (E,) out-edge fractions in edge
order.  Each agent's features and softmax denominator are left folds
of its own entries and weights, whatever the widest agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import CoordinationGraph

KERNELS = ("squared", "gaussian")


@dataclass(frozen=True)
class BlockLayout:
    """Cut points of the flat parameter vector: block i (1-based agent)
    occupies flat[offsets[i-1]:offsets[i]]."""

    dims: tuple[int, ...]

    def __post_init__(self):
        # A block below 1 would make ``block_norms`` (np.add.reduceat)
        # hand the empty block its successor's first entry.
        if min(self.dims, default=1) < 1:
            i = next(i for i, d in enumerate(self.dims, 1) if d < 1)
            raise ValueError(f"block {i} has dimension {self.dims[i - 1]}; "
                             "every block needs at least 1")

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.dims)]).astype(np.intp)

    @property
    def num_agents(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return int(self.offsets[-1])

    def block_slice(self, i: int) -> slice:
        return slice(int(self.offsets[i - 1]), int(self.offsets[i]))

    def block(self, flat: np.ndarray, i: int) -> np.ndarray:
        return flat[self.block_slice(i)]

    @cached_property
    def _dims(self) -> np.ndarray:
        """``dims`` as an array, converted once rather than per call."""
        return np.array(self.dims, dtype=np.intp)

    def block_norms(self, flat: np.ndarray) -> np.ndarray:
        """Euclidean norm of every block of ``flat``, shape (N,)."""
        sq = flat * flat
        norms = np.add.reduceat(sq, self.offsets[:-1])
        return np.sqrt(norms, out=norms)

    def expand(self, per_agent: np.ndarray) -> np.ndarray:
        """Repeat each agent's entry (axis 0, trailing axes kept) across
        its block coordinates."""
        return np.asarray(per_agent, dtype=float).repeat(self._dims, axis=0)


class NonFiniteScores(ValueError):
    """Allocation scores overflowed or turned NaN: the observation or the
    parameters are too large for the policy to act on."""


@dataclass(frozen=True)
class PolicySettings:
    """Centers per slot, their kernel, and the observation box they sit
    on: ``stock_range`` on each stock coordinate, ``demand_range``."""

    num_centers: int = 4
    kernel: str = "squared"
    stock_range: tuple[float, float] = (-1.0, 2.0)
    demand_range: tuple[float, float] = (0.0, 0.5)

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        if self.num_centers < 1:
            raise ValueError(f"num_centers must be >= 1, got {self.num_centers}")
        for key in ("stock_range", "demand_range"):
            lo, hi = (float(x) for x in getattr(self, key))
            if not lo < hi:  # NaN fails every comparison
                raise ValueError(f"{key} must be an increasing pair lo hi, got {lo} {hi}")
            object.__setattr__(self, key, (lo, hi))


class RbfPolicy:
    """Policy family bound to one coordination graph.

    Holds per-agent centers, the slot structure (self + sorted
    out-neighbors), and the block layout.  ``bind`` attaches a concrete
    flat parameter vector and yields a policy whose ``act_matrix`` maps
    the environment's state to out-edge fractions.
    ``settings`` are keywords of ``PolicySettings``, which checks them.
    """

    def __init__(self, graph: CoordinationGraph, **settings):
        s = PolicySettings(**settings)
        self.graph = graph
        self.num_centers, self.kernel = s.num_centers, s.kernel
        self.stock_range, self.demand_range = s.stock_range, s.demand_range

        src, dst = graph.edge_array
        n = graph.num_agents
        nc = self.num_centers
        self.obs_dims = np.bincount(dst, minlength=n) + 2
        self.num_slots = np.bincount(src, minlength=n) + 1
        # Centers sit on the diagonal of the observation box, at fractions
        # k/(nc+1), k = 1..nc: column 0 of ``diag`` is every stock
        # coordinate, column 1 the last (demand) coordinate.
        lo = np.array([self.stock_range[0], self.demand_range[0]])
        hi = np.array([self.stock_range[1], self.demand_range[1]])
        diag = lo + (np.arange(1, nc + 1, dtype=float) / (nc + 1))[:, None] * (hi - lo)
        self.layout = BlockLayout(tuple((nc * self.num_slots).tolist()))

        # The tables cover only the agents that ship (0-based, ascending).
        ships = self.shipping = np.flatnonzero(self.num_slots > 1)
        m, dims, slots = ships.size, self.obs_dims[ships], self.num_slots[ships]
        # The compact (S,) observation's index into the (2N,) state: per
        # shipping agent, its observed stocks (ascending), then its demand.
        into = (self.num_slots > 1)[dst]
        who = np.concatenate((dst[into], ships, ships))
        seen = np.concatenate((src[into], ships, n + ships))
        self._obs_index = seen[np.lexsort((seen, who))]
        # Per (center, entry) of the compact (S,) observation: the center,
        # the demand one at each agent's last entry, and the bincount key.
        entry_rank = np.repeat(np.arange(m), dims)
        self._centers = np.repeat(diag[:, :1], entry_rank.size, axis=1)  # (nc, S)
        self._centers[:, np.cumsum(dims) - 1] = diag[:, 1:]
        self._feat_key = (np.arange(nc)[:, None] * m + entry_rank).ravel()
        # The K valid (agent, slot) pairs in flat-parameter order: the rank
        # of each one's agent among the shipping agents, and each agent's first.
        self.slot_agent = np.repeat(np.arange(m), slots)
        self.slot_start = np.cumsum(slots) - slots
        # Edge e of source s is slot e + rank(s) + 1: the slots other than
        # each agent's first (retained) one are the edges in order.
        self._edge_slot = np.delete(np.arange(self.slot_agent.size), self.slot_start)
        # Index of slot k's agent's features into the flat (nc * m,)
        # bincount result, whose entry c * m + r is shipping agent r's center c.
        self._feat_index = np.arange(nc) * m + self.slot_agent[:, None]  # (K, nc)
        # The rows of the flat vector read as (N + |E|, nc) that the K slots hold.
        self._rows = np.flatnonzero(np.repeat(self.num_slots > 1, self.num_slots))

    def bind(self, flat: np.ndarray) -> "BoundRbfPolicy":
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.layout.total_dim,):
            raise ValueError(
                f"parameter vector has shape {flat.shape}, policy expects ({self.layout.total_dim},)")
        return BoundRbfPolicy(self, flat)


class BoundRbfPolicy:
    """RbfPolicy with a concrete parameter vector attached."""

    def __init__(self, policy: RbfPolicy, flat: np.ndarray):
        self.policy = policy
        self.flat = flat
        # Row k holds valid slot k's parameters: one ``take`` (ten times
        # faster than fancy indexing) into a contiguous copy, since einsum's
        # strided loop rounds differently.
        self._theta = np.ascontiguousarray(flat).reshape(-1, policy.num_centers).take(
            policy._rows, axis=0)

    def act_matrix(self, state: np.ndarray) -> np.ndarray:
        """Out-edge fractions for all shipping agents at once.

        state is the environment's (2N,) stocks then demands; returns the
        (E,) fractions in edge order.  A retained fraction is what its
        agent does not ship.  ``NonFiniteScores`` never names a sink.
        """
        p = self.policy
        diff = state[p._obs_index] - p._centers
        diff *= diff
        # bincount adds each agent's squared distances in entry order: a left fold
        sqd = np.bincount(p._feat_key, weights=diff.ravel())
        feats = sqd if p.kernel == "squared" else np.exp(-sqd)
        z = np.einsum("kl,kl->k", self._theta, feats[p._feat_index])
        if np.count_nonzero(np.isfinite(z)) < z.size:
            bad = (p.shipping[np.unique(p.slot_agent[~np.isfinite(z)])] + 1).tolist()
            raise NonFiniteScores(f"non-finite allocation scores for agents {bad}")
        # zmin - z is bitwise -(z - zmin)
        w = np.minimum.reduceat(z, p.slot_start)[p.slot_agent]
        w -= z
        np.exp(w, out=w)
        # bincount adds each agent's weights in slot order: a left fold
        w /= np.bincount(p.slot_agent, weights=w)[p.slot_agent]
        return w[p._edge_slot]
