import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirmarl.learner import LearnerConfig, parse_algorithm
from dirmarl.oracles import (
    one_point,
    one_point_second_moment_bound,
    residual,
    sample_perturbation,
    two_point,
    two_point_second_moment_bound,
)
from dirmarl.policy import BlockLayout

LAYOUT = BlockLayout((2, 3, 1))


def assert_batched_matches_columns(estimator, num_values, seed):
    """An (N, m) / (d, m) call equals, byte for byte, m 1-D calls on
    its columns."""
    rng = np.random.default_rng(seed)
    m = 5
    values = [rng.standard_normal((LAYOUT.num_agents, m)) for _ in range(num_values)]
    values[0][0, 1] = -0.0
    u = rng.standard_normal((LAYOUT.total_dim, m))
    got = estimator(*values, u, 0.3, LAYOUT)
    assert got.shape == (LAYOUT.total_dim, m)
    want = np.stack([estimator(*(v[:, c] for v in values), u[:, c], 0.3, LAYOUT)
                     for c in range(m)], axis=1)
    assert got.tobytes() == want.tobytes()


def test_oracle_config_validation():
    # the oracle settings (delta, flavor, scope) live on LearnerConfig
    cfg = parse_algorithm("centralized_two_point", delta=0.1, step_size=0.0)
    assert (cfg.delta, cfg.flavor, cfg.scope) == (0.1, "two_point", "centralized")
    with pytest.raises(ValueError, match="delta"):
        LearnerConfig(step_size=0.1, delta=0.0)
    with pytest.raises(ValueError, match="flavor"):
        LearnerConfig(step_size=0.1, delta=0.1, flavor="three_point")
    with pytest.raises(ValueError, match="scope"):
        LearnerConfig(step_size=0.1, delta=0.1, scope="federated")
    with pytest.raises(ValueError, match="unknown algorithm"):
        parse_algorithm("federated_two_point", delta=0.1, step_size=0.0)


def test_one_point_constant_value_scales_block():
    u = np.arange(1.0, 7.0)
    est = one_point(np.array([3.0, 3.0, 3.0]), u, 1.0, LAYOUT)
    assert np.array_equal(est, 3.0 * u)
    est = one_point(np.array([1.0, 2.0, -4.0]), u, 0.5, LAYOUT)
    assert np.array_equal(LAYOUT.block(est, 1), 2.0 * u[:2])
    assert np.array_equal(LAYOUT.block(est, 2), 4.0 * u[2:5])
    assert np.array_equal(LAYOUT.block(est, 3), -8.0 * u[5:])
    assert_batched_matches_columns(one_point, 1, seed=1)


def test_one_point_rejects_zero_delta_and_bad_shapes():
    u = np.zeros(6)
    with pytest.raises(ValueError, match="delta"):
        one_point(np.zeros(3), u, 0.0, LAYOUT)
    for bad in (0.0, -0.0, float("nan")):
        with pytest.raises(ValueError, match="delta must be non-zero"):
            one_point(np.zeros(3), u, bad, LAYOUT)
        for difference in (two_point, residual):
            with pytest.raises(ValueError, match="delta must be non-zero"):
                difference(np.zeros(3), np.zeros(3), u, bad, LAYOUT)
    # a negative delta is accepted: g flips sign with the probe
    assert np.array_equal(one_point(np.ones(3), np.ones(6), -1.0, LAYOUT), -np.ones(6))
    with pytest.raises(ValueError, match="per-agent values"):
        one_point(np.zeros(2), u, 1.0, LAYOUT)
    with pytest.raises(ValueError, match="perturbation"):
        one_point(np.zeros(3), np.zeros(5), 1.0, LAYOUT)
    with pytest.raises(ValueError, match="perturbation"):
        one_point(np.zeros((3, 4)), np.zeros((6, 5)), 1.0, LAYOUT)


def test_two_point_uses_value_differences():
    u = np.ones(6)
    vp, vb = np.array([2.0, 1.0, 0.0]), np.array([1.0, 1.0, 1.0])
    est = two_point(vp, vb, u, 0.5, LAYOUT)
    assert np.array_equal(LAYOUT.block(est, 1), [2.0, 2.0])
    assert np.array_equal(LAYOUT.block(est, 2), [0.0, 0.0, 0.0])
    assert np.array_equal(LAYOUT.block(est, 3), [-2.0])
    # the baseline is subtracted before scaling, exactly as one-point on the difference
    assert est.tobytes() == one_point(vp - vb, u, 0.5, LAYOUT).tobytes()
    with pytest.raises(ValueError, match="mismatched"):
        two_point(np.zeros(3), np.zeros(2), u, 0.5, LAYOUT)
    assert_batched_matches_columns(two_point, 2, seed=2)


def test_two_point_invariant_to_constant_shift():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(6)
    vp = rng.normal(size=3)
    vb = rng.normal(size=3)
    a = two_point(vp, vb, u, 0.3, LAYOUT)
    b = two_point(vp + 100.0, vb + 100.0, u, 0.3, LAYOUT)
    assert np.allclose(a, b)


def test_residual_is_two_point_under_its_flavor_name():
    assert residual is two_point
    u = np.ones(6)
    for difference in (two_point, residual):
        with pytest.raises(ValueError, match=r"mismatched.*\(3,\).*\(2,\)"):
            difference(np.zeros(3), np.zeros(2), u, 0.5, LAYOUT)
        with pytest.raises(ValueError, match=r"mismatched.*\(3, 2\).*\(3,\)"):
            difference(np.zeros((3, 2)), np.zeros(3), u, 0.5, LAYOUT)


def test_residual_first_episode_reduces_to_one_point():
    u = np.arange(1.0, 7.0)
    vals = np.array([1.0, -2.0, 0.5])
    # before the first episode the carried values are zeros
    est = residual(vals, np.zeros(3), u, 0.5, LAYOUT)
    ref = one_point(vals, u, 0.5, LAYOUT)
    assert np.array_equal(est, ref)
    # Second episode subtracts the carried values.
    est2 = residual(vals, vals, u, 0.5, LAYOUT)
    assert np.array_equal(est2, np.zeros(6))
    with pytest.raises(ValueError, match="mismatched"):
        residual(vals, np.zeros(2), u, 0.5, LAYOUT)
    assert_batched_matches_columns(residual, 2, seed=3)


def test_sample_perturbation_shape_and_determinism():
    u1 = sample_perturbation(LAYOUT, np.random.default_rng(5))
    u2 = sample_perturbation(LAYOUT, np.random.default_rng(5))
    assert u1.shape == (6,)
    assert np.array_equal(u1, u2)


def test_one_point_bound_values():
    assert one_point_second_moment_bound(1.0, 0.0, 4, 1.0) == 4.0
    assert one_point_second_moment_bound(2.0, 1.0, 3, 0.5) == (4 + 1) * 3 / 0.25
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="delta must be > 0"):
            one_point_second_moment_bound(1.0, 0.0, 4, bad)
    with pytest.raises(ValueError, match="block_dim"):
        one_point_second_moment_bound(1.0, 0.0, 0, 1.0)


def test_two_point_bound_values():
    assert two_point_second_moment_bound(1.0, 1.0, 2, 10) == 2 * (20 + 16 + 16)
    with pytest.raises(ValueError):
        two_point_second_moment_bound(1.0, 0.0, 5, 3)


@given(st.floats(min_value=1e-3, max_value=10.0),
       st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=5.0),
       st.integers(1, 20))
@settings(max_examples=100)
def test_one_point_bound_quadratic_in_inverse_delta(delta, vb, sig, d_i):
    # Halving delta multiplies the ceiling by exactly four.
    full = one_point_second_moment_bound(vb, sig, d_i, delta)
    half = one_point_second_moment_bound(vb, sig, d_i, delta / 2)
    assert half == pytest.approx(4.0 * full, rel=1e-12)


def test_block_norms_on_estimate():
    u = np.array([3.0, 4.0, 0.0, 0.0, 12.0, 1.0])
    est = one_point(np.array([1.0, 1.0, 5.0]), u, 1.0, LAYOUT)
    assert np.allclose(LAYOUT.block_norms(est), [5.0, 12.0, 5.0])


def test_mc_one_point_mean_matches_quadratic_gradient():
    # J(theta) = ||theta||^2 has smoothed gradient exactly 2 theta.
    rng = np.random.default_rng(2024)
    layout = BlockLayout((2, 2))
    theta = np.array([0.3, -0.7, 1.1, 0.2])
    delta = 0.4
    m = 1_000_000
    u = rng.standard_normal((m, 4))
    vals = ((theta + delta * u) ** 2).sum(axis=1)
    samples = (vals / delta)[:, None] * u
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(m)
    assert np.all(np.abs(mean - 2 * theta) <= 3 * stderr)
    # Spot-check the vectorized sampler against the oracle API itself
    # (every block fed the global value, centralized style).
    est = one_point(np.array([vals[0], vals[0]]), u[0], delta, layout)
    assert np.allclose(est, samples[0])
