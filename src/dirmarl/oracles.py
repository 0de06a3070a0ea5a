"""Zeroth-order gradient oracles over per-agent value feedback.

All three estimators share the structure g_i = (scalar_i / delta) * u_i
with u ~ N(0, I_d) the joint Gaussian probe and u_i agent i's block:

  one-point   scalar_i = V_i(theta + delta u, xi)
  two-point   scalar_i = V_i(theta + delta u, xi) - V_i(theta, xi)
              (same realized noise xi on both evaluations)
  residual    scalar_i = V_i(theta^k + delta u^k, xi^k)
                         - V_i(theta^{k-1} + delta u^{k-1}, xi^{k-1})
              (the previous episode's perturbed value, carried by the
              caller; before the first episode it is zero, so episode 0
              reduces to the one-point estimator)

In the distributed scope V_i is agent i's assembled local value (its
own return plus every reward it influences); in the centralized scope
every agent substitutes the global value.  Each estimator is unbiased
for the block gradient of the Gaussian-smoothed objective.

Values are agent-first: a single episode passes (N,) values and a (d,)
probe and gets the flat (d,) estimate back; trailing axes, such as the
claim battery's (N, m) values and (d, m) probes, ride along unchanged.

The bound calculators evaluate the known second-moment ceilings:
one-point E||g_i||^2 <= (V_i^* ^2 + sigma_i^2) d_i / delta^2, and
two-point per-block (L_i^2 + sigma_i^2)(d_i d + 8 d_i + 16).
"""

from __future__ import annotations

import numpy as np

from .policy import BlockLayout

FLAVORS = ("one_point", "two_point", "residual")
SCOPES = ("distributed", "centralized")


def sample_perturbation(layout: BlockLayout, rng: np.random.Generator) -> np.ndarray:
    """Joint standard-normal probe u ~ N(0, I_d)."""
    return rng.standard_normal(layout.total_dim)


def _scaled(values: np.ndarray, u: np.ndarray, delta: float, layout: BlockLayout) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    u = np.asarray(u, dtype=float)
    if delta == 0.0:
        raise ValueError("delta must be non-zero")
    if values.shape[:1] != (layout.num_agents,):
        raise ValueError(f"expected {layout.num_agents} per-agent values, got shape {values.shape}")
    if u.shape != (layout.total_dim,) + values.shape[1:]:
        raise ValueError(f"perturbation has shape {u.shape}, layout and values expect "
                         f"{(layout.total_dim,) + values.shape[1:]}")
    return layout.expand(values / delta) * u


def one_point(values: np.ndarray, u: np.ndarray, delta: float,
              layout: BlockLayout) -> np.ndarray:
    """g_i = (V_i / delta) u_i from a single perturbed evaluation."""
    return _scaled(values, u, delta, layout)


def two_point(values_perturbed: np.ndarray, values_base: np.ndarray, u: np.ndarray,
              delta: float, layout: BlockLayout) -> np.ndarray:
    """g_i = ((V_i(theta+delta u) - V_i(theta)) / delta) u_i, both
    evaluations under the same realized noise."""
    vp = np.asarray(values_perturbed, dtype=float)
    vb = np.asarray(values_base, dtype=float)
    if vp.shape != vb.shape:
        raise ValueError(f"perturbed and baseline values have mismatched shapes "
                         f"{vp.shape} vs {vb.shape}")
    return _scaled(vp - vb, u, delta, layout)


def residual(values_perturbed: np.ndarray, values_previous: np.ndarray, u: np.ndarray,
             delta: float, layout: BlockLayout) -> np.ndarray:
    """g_i = ((V_i^k - V_i^{k-1}) / delta) u_i^k where V^{k-1} is the
    previous episode's perturbed value (zeros before the first)."""
    vp = np.asarray(values_perturbed, dtype=float)
    prev = np.asarray(values_previous, dtype=float)
    if vp.shape != prev.shape:
        raise ValueError(f"values and previous values have mismatched shapes "
                         f"{vp.shape} vs {prev.shape}")
    return _scaled(vp - prev, u, delta, layout)


def one_point_second_moment_bound(value_bound: float, sigma_hat: float,
                                  block_dim: int, delta: float) -> float:
    """Ceiling on E||g_i||^2 for the one-point estimator when
    |V_i| <= value_bound and the additive noise has variance
    sigma_hat^2: (V^2 + sigma^2) d_i / delta^2."""
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if block_dim < 1:
        raise ValueError(f"block_dim must be >= 1, got {block_dim}")
    return (value_bound ** 2 + sigma_hat ** 2) * block_dim / delta ** 2


def two_point_second_moment_bound(lipschitz_hat: float, sigma_hat: float,
                                  block_dim: int, total_dim: int) -> float:
    """Per-block ceiling for the two-point estimator on an
    L-Lipschitz value: (L^2 + sigma^2)(d_i d + 8 d_i + 16)."""
    if block_dim < 1 or total_dim < block_dim:
        raise ValueError(f"need 1 <= block_dim <= total_dim, got {block_dim}, {total_dim}")
    return (lipschitz_hat ** 2 + sigma_hat ** 2) * (block_dim * total_dim + 8 * block_dim + 16)
