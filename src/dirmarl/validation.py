"""Numerical checks of the library's correctness claims.

The targets are independent of the learning stack: synthetic
decomposable objectives whose variable dependence mirrors a
coordination graph and whose gradients and Gaussian-smoothed gradients
are closed form, Monte-Carlo smoothed-gradient estimators and central
finite differences.  What is checked against them is the production
code: ``oracle_moments`` assembles local values with the learner's
``MessageBus`` routing plan and runs the learner's estimation step,
``feedback`` (the scope rule) and ``estimate`` (the flavor's
estimator), so the claim battery tests the code that trains.

Statistical checks report estimated standard errors and compare at a
z-multiple instead of hard-coded tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import CoordinationGraph, LearningGraph, build_artifacts, build_graph
from .learner import LearnerConfig, MessageBus, estimate, feedback
from .oracles import FLAVORS, one_point_second_moment_bound, two_point_second_moment_bound
from .policy import BlockLayout

FAMILIES = ("quadratic", "cosine", "abs")

_erf = np.vectorize(math.erf, otypes=[float])


@dataclass(frozen=True)
class SyntheticObjective:
    """Sum of per-agent terms aligned to a coordination graph.

    The term of agent j reads exactly the parameter blocks of the
    agents that can influence j: its graph ancestors plus j itself.
    Consequently the block-i gradient of the global sum equals the
    block-i gradient of agent i's local sum over its reachable set,
    which is the structural fact the learner relies on.  ``learning``
    is the graph's reward-routing graph; every local sum is the
    ``gather`` of ``bus``, the learner's routing plan on it.

    Families:
      quadratic  strictly concave; smoothing only shifts the value by
                 a constant, so the smoothed gradient is the gradient
      cosine     bounded and Lipschitz; smoothing damps the amplitude
                 by exp(-delta^2 ||w||^2 / 2)
      abs        non-smooth kinks; the smoothed coordinate response is
                 an error function

    ``weights`` holds the per-coordinate curvatures (quadratic),
    frequency vector (cosine) or slopes (abs); ``offsets`` is the value
    offset, reused as the phase for cosine.
    """

    family: str
    layout: BlockLayout
    deps: tuple[tuple[int, ...], ...]       # per term: influencing agents, ascending
    learning: LearningGraph
    gather: tuple[np.ndarray, ...]          # per term: flat coordinate indices
    weights: tuple[np.ndarray, ...]
    targets: tuple[np.ndarray, ...]
    offsets: np.ndarray
    amplitudes: np.ndarray | None
    noise_std: np.ndarray

    @property
    def num_agents(self) -> int:
        return len(self.deps)

    @property
    def total_dim(self) -> int:
        return self.layout.total_dim

    @cached_property
    def bus(self) -> MessageBus:
        return MessageBus(self.learning)

    # -- values -------------------------------------------------------

    def term_values(self, thetas: np.ndarray) -> np.ndarray:
        """Noise-free per-term values for a (M, d) batch, shape (M, N)."""
        return self._term_rows(_coordinate_major(thetas)).T

    def _term_rows(self, tT: np.ndarray) -> np.ndarray:
        """Per-term values on coordinate-major points: ``tT`` is a (d, M)
        array or view, one row per coordinate, so every term works on
        long rows of M.
        Term j reads only its own ``gather[j]`` rows.  Shape (N, M)."""
        out = np.empty((self.num_agents, tT.shape[1]))
        for j in range(self.num_agents):
            x = tT[self.gather[j]]  # a fresh (k, M) copy, free to overwrite
            w = self.weights[j]
            if self.family == "quadratic":
                x -= self.targets[j][:, None]
                x *= x
                out[j] = self.offsets[j] - w @ x
            elif self.family == "cosine":
                out[j] = self.amplitudes[j] * np.cos(w @ x + self.offsets[j])
            else:
                x -= self.targets[j][:, None]
                out[j] = self.offsets[j] - w @ np.abs(x, out=x)
        return out

    def totals(self, thetas: np.ndarray, i: int | None = None) -> np.ndarray:
        """Noise-free sums over a (M, d) batch, shape (M,): the global
        sum, or agent i's local sum (a copy: a view keeps all N alive)."""
        rows = self._term_rows(_coordinate_major(thetas))
        return rows.sum(axis=0) if i is None else self.bus.gather(rows)[i - 1].copy()

    # -- gradients ----------------------------------------------------

    def term_gradient(self, j: int, theta: np.ndarray, delta: float = 0.0) -> np.ndarray:
        """Gradient of term j alone, Gaussian-smoothed at radius
        ``delta`` in closed form, embedded in the flat space.  At
        ``delta = 0`` it is the plain gradient; for the abs family that
        is the sign subgradient (zero at kinks)."""
        if not delta >= 0.0:  # NaN fails every comparison
            raise ValueError(f"delta must be >= 0, got {delta}")
        theta = np.asarray(theta, dtype=float)
        g = np.zeros(self.total_dim)
        x = theta[self.gather[j - 1]]
        w = self.weights[j - 1]
        if self.family == "quadratic":
            g[self.gather[j - 1]] = -2.0 * w * (x - self.targets[j - 1])
        elif self.family == "cosine":
            damp = math.exp(-0.5 * delta ** 2 * float(w @ w))
            s = math.sin(float(x @ w) + self.offsets[j - 1])
            g[self.gather[j - 1]] = -self.amplitudes[j - 1] * damp * s * w
        else:
            y = x - self.targets[j - 1]
            if delta == 0.0:
                g[self.gather[j - 1]] = -w * np.sign(y)
            else:
                g[self.gather[j - 1]] = -w * _erf(y / (delta * math.sqrt(2.0)))
        return g

    def gradient(self, theta: np.ndarray, delta: float = 0.0) -> np.ndarray:
        """Analytic gradient of E[J(theta + delta u)], u standard normal,
        where J is the global sum; at ``delta = 0`` the plain gradient."""
        return self._term_gradients(theta, delta).sum(axis=0)

    def local_gradients(self, theta: np.ndarray, delta: float = 0.0) -> np.ndarray:
        """Row i - 1 is the same gradient of agent i's local sum instead,
        for every agent."""
        return self.bus.gather(self._term_gradients(theta, delta))

    def _term_gradients(self, theta: np.ndarray, delta: float) -> np.ndarray:
        return np.stack([self.term_gradient(j, theta, delta)
                         for j in range(1, self.num_agents + 1)])

    # -- known constants ----------------------------------------------

    @cached_property
    def term_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per term, sup |J_j| over the whole space (infinite outside the
        cosine family) and the Lipschitz constant (infinite for the
        quadratic family)."""
        norms = np.array([np.linalg.norm(w) for w in self.weights])
        if self.family == "cosine":
            return self.amplitudes, self.amplitudes * norms
        unbounded = np.full(self.num_agents, math.inf)
        return unbounded, norms if self.family == "abs" else unbounded

    def local_value_bound(self, i: int) -> float:
        return float(self.bus.gather(self.term_bounds[0])[i - 1])

    def local_lipschitz(self, i: int) -> float:
        return float(self.bus.gather(self.term_bounds[1])[i - 1])

    def local_noise_std(self, i: int) -> float:
        return float(np.sqrt(self.bus.gather(self.noise_std ** 2)[i - 1]))

def _coordinate_major(thetas: np.ndarray) -> np.ndarray:
    """A (M, d) batch of points as a (d, M) view.  No copy: each term's
    row gather in ``_term_rows`` already produces contiguous rows."""
    return np.atleast_2d(np.asarray(thetas, dtype=float)).T


def make_synthetic(graph: CoordinationGraph, rng: np.random.Generator, *,
                   family: str = "quadratic",
                   block_dims: tuple[int, ...] | None = None,
                   noise_std=0.0) -> SyntheticObjective:
    """Random instance aligned to ``graph``.

    Term j depends on the blocks of j and of every agent that reaches
    j, ascending: the targets j sends its reward to in the learning
    graph.  The dependency invariant (term j never reads block i unless
    i reaches j) therefore holds by construction and is re-checkable
    with ``dependency_violations``.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    learning = build_artifacts(graph).learning
    n = graph.num_agents
    if block_dims is None:
        block_dims = tuple(int(v) for v in rng.integers(1, 4, size=n))
    if len(block_dims) != n:
        raise ValueError(f"got {len(block_dims)} block dims for {n} agents")
    layout = BlockLayout(tuple(int(d) for d in block_dims))

    pairs = learning.edges  # (sender, target), by sender
    cut = np.searchsorted(pairs[:, 0], np.arange(2, n + 1))
    deps, gather = [], []
    for j, reachers in enumerate(np.split(pairs[:, 1], cut), 1):
        d_j = tuple(sorted(reachers.tolist() + [j]))
        deps.append(d_j)
        gather.append(np.concatenate(
            [np.arange(layout.offsets[k - 1], layout.offsets[k]) for k in d_j]))

    weights, targets = [], []
    offsets = np.empty(n)
    amplitudes = np.empty(n) if family == "cosine" else None
    for j in range(n):
        m = gather[j].size
        if family == "cosine":
            w = rng.standard_normal(m)
            w *= rng.uniform(0.5, 1.5) / np.linalg.norm(w)
            weights.append(w)
            targets.append(np.zeros(m))
            offsets[j] = rng.uniform(0.0, 2.0 * math.pi)
            amplitudes[j] = rng.uniform(0.5, 1.5)
        else:  # quadratic and abs draw alike
            weights.append(rng.uniform(0.5, 1.5, size=m))
            targets.append(rng.uniform(-1.0, 1.0, size=m))
            offsets[j] = rng.uniform(0.0, 1.0)

    sigma = np.asarray(noise_std, dtype=float)
    if sigma.ndim == 0:
        sigma = np.full(n, float(sigma))
    if sigma.shape != (n,) or np.any(sigma < 0.0):
        raise ValueError(f"noise_std must be a scalar or {n} nonnegative values")

    return SyntheticObjective(
        family=family, layout=layout, deps=tuple(deps), learning=learning,
        gather=tuple(gather), weights=tuple(weights), targets=tuple(targets),
        offsets=offsets, amplitudes=amplitudes, noise_std=sigma)


def dependency_violations(obj: SyntheticObjective,
                          rng: np.random.Generator) -> list[tuple[int, int]]:
    """Structural inspection: at three random points, perturb block k
    and report every term i whose value moved although k cannot
    influence i."""
    bad = []
    for _ in range(3):
        theta = rng.uniform(-2.0, 2.0, size=obj.total_dim)
        base = obj.term_values(theta)[0]
        for k in range(1, obj.num_agents + 1):
            shifted = theta.copy()
            shifted[obj.layout.block_slice(k)] += rng.uniform(0.5, 1.5)
            moved = obj.term_values(shifted)[0] != base
            for i in range(1, obj.num_agents + 1):
                if moved[i - 1] and k not in obj.deps[i - 1]:
                    bad.append((i, k))
    return sorted(set(bad))


# -- Monte-Carlo and finite-difference estimators ---------------------


@dataclass(frozen=True)
class MomentEstimate:
    """Sample moments of a vector estimator.  ``mean`` carries the
    per-coordinate sample mean with its standard errors; the second
    moment E||g_i||^2 is given per block when a layout was, and the
    overall one is their sum.  Standard errors come from the sample
    variance, never assumptions."""

    sample_count: int
    mean: np.ndarray
    standard_errors: np.ndarray
    block_second_moments: np.ndarray | None = None
    block_second_moment_stderrs: np.ndarray | None = None


class _MomentAccumulator:
    def __init__(self, dim: int, num_blocks: int | None):
        self.count = 0
        self.sum = np.zeros(dim)
        self.sumsq = np.zeros(dim)
        self.blocks = None if num_blocks is None else np.zeros(num_blocks)
        self.blocks_sq = None if num_blocks is None else np.zeros(num_blocks)

    def add(self, g: np.ndarray, gg: np.ndarray, block_sq: np.ndarray | None) -> None:
        # Coordinate-major: g and gg = g * g are (dim, m), one column per
        # sample; block_sq is (num_blocks, m) of squared block norms.
        # Every sum over samples runs along the long, contiguous axis.
        self.count += g.shape[1]
        self.sum += g.sum(axis=1)
        self.sumsq += gg.sum(axis=1)
        if self.blocks is not None:
            self.blocks += block_sq.sum(axis=1)
            self.blocks_sq += (block_sq * block_sq).sum(axis=1)

    def finish(self) -> MomentEstimate:
        m = self.count
        mean = self.sum / m
        var = np.maximum(self.sumsq / m - mean ** 2, 0.0) * (m / (m - 1))
        bm = bse = None
        if self.blocks is not None:
            bm = self.blocks / m
            bvar = np.maximum(self.blocks_sq / m - bm ** 2, 0.0) * (m / (m - 1))
            bse = np.sqrt(bvar / m)
        return MomentEstimate(m, mean, np.sqrt(var / m), bm, bse)


def _check_sizes(num_samples: int, minimum: int, batch_size: int) -> None:
    if num_samples < minimum:
        raise ValueError(f"num_samples must be >= {minimum}, got {num_samples}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")


def _checked_values(f, points: np.ndarray) -> np.ndarray:
    """``f`` on an (m, d) batch of points: (m,) finite values or a
    ValueError."""
    vals = np.asarray(f(points), dtype=float)
    if vals.shape != (len(points),):
        raise ValueError(f"objective returned shape {vals.shape} for a ({len(points)}, d) batch")
    if not np.all(np.isfinite(vals)):
        raise ValueError("objective produced non-finite values")
    return vals


def _normal_batches(rng: np.random.Generator, num_samples: int, batch_size: int,
                    widths: tuple[int, ...]):
    """The one Monte-Carlo draw rule of the battery: ``num_samples``
    samples in batches of at most ``batch_size``.  For a batch of m it
    makes one row-major (m, r) standard-normal draw per width r of
    ``widths``, in that order, and yields them as a list of C-contiguous
    coordinate-major (r, m) arrays, fresh and free to overwrite."""
    for start in range(0, num_samples, batch_size):
        m = min(batch_size, num_samples - start)
        yield [np.ascontiguousarray(rng.standard_normal((m, r)).T) for r in widths]


def _perturbed(theta: np.ndarray, delta: float, uT: np.ndarray) -> np.ndarray:
    """The points theta + delta u for (d, m) probes ``uT``, as a fresh
    C-contiguous (d, m) array; an objective gets its (m, d) transpose
    view, so each coordinate's m values lie in one row."""
    points = uT * delta
    points += theta[:, None]
    return points


def mc_smoothed_gradient(f, theta: np.ndarray, delta: float, num_samples: int,
                         rng: np.random.Generator, *, batch_size: int = 16384,
                         ) -> MomentEstimate:
    """Monte-Carlo realization of the Gaussian-smoothing gradient:
    mean of (f(theta + delta u) / delta) u over standard-normal u.

    ``f`` must map an (m, d) batch of points to (m,) values.  At least
    10^3 samples; non-finite values abort.
    """
    _check_sizes(num_samples, 1000, batch_size)
    if not delta > 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    theta = np.asarray(theta, dtype=float)
    acc = _MomentAccumulator(theta.size, None)
    for uT, in _normal_batches(rng, num_samples, batch_size, (theta.size,)):
        uT *= _checked_values(f, _perturbed(theta, delta, uT).T) / delta
        acc.add(uT, uT * uT, None)
    return acc.finish()


def finite_difference_gradient(f, theta: np.ndarray, h: float) -> np.ndarray:
    """Central differences per coordinate; ``f`` maps (m, d) to (m,)
    and must be deterministic."""
    if not h > 0.0:
        raise ValueError(f"step h must be > 0, got {h}")
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    pts = np.repeat(theta[None, :], 2 * d, axis=0)
    idx = np.arange(d)
    pts[idx, idx] += h
    pts[d + idx, idx] -= h
    vals = _checked_values(f, pts)
    return (vals[:d] - vals[d:]) / (2.0 * h)


@dataclass(frozen=True)
class SmoothingGapReport:
    """|J^delta - J| estimates against the delta sqrt(d) L ceiling."""

    bound: float
    gaps: np.ndarray
    stderrs: np.ndarray

    @property
    def worst_gap(self) -> float:
        return float(self.gaps.max())

    @property
    def passed(self) -> bool:
        return bool(np.all(self.gaps <= self.bound + 3.0 * self.stderrs))


def check_smoothing_gap(f, lipschitz: float, delta: float, thetas,
                        num_samples: int, rng: np.random.Generator, *,
                        batch_size: int = 16384) -> SmoothingGapReport:
    """Monte-Carlo J^delta at each theta versus the exact value, with
    the Lipschitz smoothing ceiling delta sqrt(d) L."""
    if not lipschitz > 0.0:
        raise ValueError(f"lipschitz must be > 0, got {lipschitz}")
    if not delta >= 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    _check_sizes(num_samples, 1000, batch_size)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[0] == 0:
        raise ValueError(f"thetas must hold at least one point, got shape {thetas.shape}")
    d = thetas.shape[1]
    gaps = np.empty(thetas.shape[0])
    stderrs = np.empty(thetas.shape[0])
    for t, theta in enumerate(thetas):
        exact = float(_checked_values(f, theta[None, :])[0])
        total = 0.0
        totalsq = 0.0
        for uT, in _normal_batches(rng, num_samples, batch_size, (d,)):
            vals = _checked_values(f, _perturbed(theta, delta, uT).T)
            total += float(vals.sum())
            totalsq += float((vals * vals).sum())
        mean = total / num_samples
        var = max(totalsq / num_samples - mean ** 2, 0.0) * num_samples / (num_samples - 1)
        gaps[t] = abs(mean - exact)
        stderrs[t] = math.sqrt(var / num_samples)
    return SmoothingGapReport(delta * math.sqrt(d) * lipschitz, gaps, stderrs)


def oracle_moments(obj: SyntheticObjective, theta: np.ndarray, delta: float,
                   num_samples: int, rng: np.random.Generator, *,
                   flavor: str = "one_point", scope: str = "distributed",
                   batch_size: int = 8192) -> MomentEstimate:
    """Vectorized sample moments of the production zeroth-order
    estimators on a synthetic instance, noise included.  Semantically
    one draw is one learning episode: perturb, evaluate per-term values
    plus per-agent noise, assemble each agent's feedback value per the
    scope (the learner's ``feedback`` on the ``MessageBus`` plan), then
    run the learner's ``estimate``.  Residual draws an independent
    previous episode at the same theta, which is its stationary-point
    distribution."""
    cfg = LearnerConfig(0.0, delta, flavor, scope)  # checks delta, flavor and scope
    _check_sizes(num_samples, 2, batch_size)
    theta = np.asarray(theta, dtype=float)
    n, d = obj.num_agents, obj.total_dim

    def values(observed):
        return feedback(scope, observed, obj.bus.gather(observed))

    # Coordinate-major throughout: every array below is agent- or
    # coordinate-first with rows as long as the batch.  ``members`` sums
    # squared coordinates into squared block norms.
    owner = np.repeat(np.arange(n), obj.layout.dims)
    members = (owner == np.arange(n)[:, None]).astype(float)
    sigma = obj.noise_std[:, None]
    base = obj._term_rows(theta[:, None]) if flavor == "two_point" else None

    def noisy_terms(uT, noise):
        # term values at theta + delta u plus the noise, scaled in place
        noise *= sigma
        tv = obj._term_rows(_perturbed(theta, delta, uT))
        tv += noise
        return tv

    acc = _MomentAccumulator(d, n)
    widths = (d, n, d, n) if flavor == "residual" else (d, n)
    for uT, noise, *previous in _normal_batches(rng, num_samples, batch_size, widths):
        v = values(noisy_terms(uT, noise))
        reference = None
        if flavor == "two_point":
            reference = values(base + noise)  # common randomness: the same scaled noise
        elif flavor == "residual":
            reference = values(noisy_terms(*previous))
        g = estimate(cfg, v, reference, uT, obj.layout)
        gg = g * g
        acc.add(g, gg, members @ gg)
    return acc.finish()


# -- runnable claim-check suite ---------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _demo_graphs() -> list[CoordinationGraph]:
    chain = build_graph(3, [(1, 2), (2, 3)])
    clustered = build_graph(6, [(1, 2), (2, 1), (2, 3), (3, 4), (4, 3), (4, 5), (5, 6)])
    zigzag = build_graph(6, [(1, 2), (3, 2), (3, 4), (5, 4), (5, 6)])
    return [chain, clustered, zigzag]


def _check_block_gradients(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for graph in _demo_graphs():
        for family in FAMILIES:
            obj = make_synthetic(graph, rng, family=family)
            for _ in range(20):
                theta = rng.uniform(-2.0, 2.0, size=obj.total_dim)
                g = obj.gradient(theta)
                local = obj.local_gradients(theta)
                for i in range(1, obj.num_agents + 1):
                    sl = obj.layout.block_slice(i)
                    if not np.array_equal(g[sl], local[i - 1, sl]):
                        return CheckResult(
                            "block_gradient_identity", False,
                            f"block {i} of {family} instance differs")
            if family == "abs":
                continue
            theta = rng.uniform(-2.0, 2.0, size=obj.total_dim)
            fd = finite_difference_gradient(obj.totals, theta, 1e-5)
            g = obj.gradient(theta)
            err = float(np.max(np.abs(fd - g) / np.maximum(np.abs(g), 1e-3)))
            worst = max(worst, err)
            if err > 1e-6:
                return CheckResult("block_gradient_identity", False,
                                   f"finite differences disagree by {err:.2e} ({family})")
    return CheckResult("block_gradient_identity", True,
                       f"exact block match on all instances, worst fd error {worst:.2e}")


def _check_smoothed_block_agreement(rng: np.random.Generator, num_samples: int) -> CheckResult:
    worst = 0.0
    for graph in _demo_graphs()[:2]:
        obj = make_synthetic(graph, rng, family="quadratic")
        for _ in range(2):
            theta = rng.uniform(-1.0, 1.0, size=obj.total_dim)
            delta = float(rng.uniform(0.2, 0.6))
            est_g = mc_smoothed_gradient(obj.totals, theta, delta, num_samples, rng)
            i = int(rng.integers(1, obj.num_agents + 1))
            est_l = mc_smoothed_gradient(
                lambda t: obj.totals(t, i), theta, delta, num_samples, rng)
            sl = obj.layout.block_slice(i)
            diff = est_g.mean[sl] - est_l.mean[sl]
            se = np.sqrt(est_g.standard_errors[sl] ** 2 + est_l.standard_errors[sl] ** 2)
            stat = float((diff ** 2 / se ** 2).sum())
            d_i = diff.size
            limit = d_i + 3.0 * math.sqrt(2.0 * d_i)
            worst = max(worst, stat / limit)
            if stat > limit:
                return CheckResult(
                    "smoothed_block_agreement", False,
                    f"block {i}: joint statistic {stat:.2f} above {limit:.2f}")
    return CheckResult("smoothed_block_agreement", True,
                       f"joint statistic at worst {worst:.2f} of the 3-sigma limit")


def _check_oracle_means(rng: np.random.Generator, num_samples: int) -> CheckResult:
    graph = _demo_graphs()[0]
    obj = make_synthetic(graph, rng, family="quadratic", noise_std=0.1)
    theta = rng.uniform(-1.0, 1.0, size=obj.total_dim)
    delta = 0.4
    target = obj.gradient(theta, delta)  # equals the plain gradient here
    worst = 0.0
    d = obj.total_dim
    limit = d + 3.0 * math.sqrt(2.0 * d)  # joint 3-sigma across coordinates
    for flavor in FLAVORS:
        est = oracle_moments(obj, theta, delta, num_samples, rng, flavor=flavor)
        z = (est.mean - target) / est.standard_errors
        stat = float((z * z).sum())
        worst = max(worst, stat / limit)
        if stat > limit:
            return CheckResult("oracle_unbiasedness", False,
                               f"{flavor} joint statistic {stat:.2f} above {limit:.2f}")
    return CheckResult("oracle_unbiasedness", True,
                       f"all oracle means within the joint 3-sigma region "
                       f"(worst ratio {worst:.2f})")


def _check_second_moment_bounds(rng: np.random.Generator, num_samples: int) -> CheckResult:
    graph = _demo_graphs()[2]
    obj = make_synthetic(graph, rng, family="cosine", noise_std=0.05)
    theta = rng.uniform(-1.0, 1.0, size=obj.total_dim)
    delta = 0.3
    d = obj.total_dim
    margin = 0.0
    one = oracle_moments(obj, theta, delta, num_samples, rng, flavor="one_point")
    two = oracle_moments(obj, theta, delta, num_samples, rng, flavor="two_point")
    for i in range(1, obj.num_agents + 1):
        d_i = obj.layout.dims[i - 1]
        cap1 = one_point_second_moment_bound(
            obj.local_value_bound(i), obj.local_noise_std(i), d_i, delta)
        cap2 = two_point_second_moment_bound(
            obj.local_lipschitz(i), obj.local_noise_std(i), d_i, d)
        got1 = float(one.block_second_moments[i - 1])
        got2 = float(two.block_second_moments[i - 1])
        se1 = float(one.block_second_moment_stderrs[i - 1])
        se2 = float(two.block_second_moment_stderrs[i - 1])
        if got1 > cap1 + 3.0 * se1 or got2 > cap2 + 3.0 * se2:
            return CheckResult("second_moment_bounds", False,
                               f"block {i} exceeds its ceiling")
        margin = max(margin, got1 / cap1, got2 / cap2)
    return CheckResult("second_moment_bounds", True,
                       f"all blocks below their ceilings (worst ratio {margin:.3f})")


def _check_smoothing_gap(rng: np.random.Generator, num_samples: int) -> CheckResult:
    d = 6
    thetas = rng.uniform(-1.0, 1.0, size=(3, d))
    report = check_smoothing_gap(lambda t: np.abs(t).sum(axis=1), math.sqrt(d), 0.1,
                                 thetas, num_samples, rng)
    if not report.passed:
        return CheckResult("smoothing_gap", False,
                           f"worst gap {report.worst_gap:.4f} above bound {report.bound:.4f}")
    return CheckResult("smoothing_gap", True,
                       f"worst gap {report.worst_gap:.4f} within bound {report.bound:.4f}")


def _check_scope_variance(rng: np.random.Generator, num_samples: int) -> CheckResult:
    # At a single theta the global cosine sum can cancel below a local
    # one, so the ordering is asserted on the average over policies and
    # with per-agent noise prominent enough that collecting fewer noise
    # terms (the structural advantage of local feedback) dominates the
    # value cross terms.
    graph = _demo_graphs()[2]  # sparse reachability, nobody reaches everyone
    obj = make_synthetic(graph, rng, family="cosine", noise_std=1.0)
    draws = 8
    n = obj.num_agents
    dist_sum, cent_sum = np.zeros(n), np.zeros(n)
    dist_var, cent_var = np.zeros(n), np.zeros(n)
    for _ in range(draws):
        theta = rng.uniform(-2.0, 2.0, size=obj.total_dim)
        seed = rng.integers(2 ** 63)
        dist = oracle_moments(obj, theta, 0.3, num_samples,
                              np.random.default_rng(seed), flavor="one_point")
        cent = oracle_moments(obj, theta, 0.3, num_samples,
                              np.random.default_rng(seed), flavor="one_point",
                              scope="centralized")  # same draws, paired comparison
        dist_sum += dist.block_second_moments
        cent_sum += cent.block_second_moments
        dist_var += dist.block_second_moment_stderrs ** 2
        cent_var += cent.block_second_moment_stderrs ** 2
    gap = (cent_sum - dist_sum) / draws
    se = np.sqrt(dist_var + cent_var) / draws
    if not np.all(gap > 3.0 * se):
        worst = int(np.argmin(gap - 3.0 * se)) + 1
        return CheckResult("scope_variance_ordering", False,
                           f"block {worst} not significantly below centralized")
    ratio = float((dist_sum / cent_sum).max())
    return CheckResult("scope_variance_ordering", True,
                       f"every block below centralized (worst ratio {ratio:.3f})")


def run_validation(seed: int = 0, *, quick: bool = False) -> list[CheckResult]:
    """Run the whole claim-check battery and return one result per
    check.  ``quick`` shrinks the Monte-Carlo sample counts."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    mc = 20_000 if quick else 100_000
    results = [
        _check_block_gradients(rng),
        _check_smoothed_block_agreement(rng, mc),
        _check_oracle_means(rng, mc),
        _check_second_moment_bounds(rng, mc),
        _check_smoothing_gap(rng, mc),
        _check_scope_variance(rng, mc),
    ]
    violations = []
    for graph in _demo_graphs():
        for family in FAMILIES:
            violations += dependency_violations(make_synthetic(graph, rng, family=family), rng)
    results.append(CheckResult(
        "dependency_structure", not violations,
        "no term reads a block outside its influence set" if not violations
        else f"violations: {violations}"))
    return results
