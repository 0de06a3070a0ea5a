"""Synthetic objectives, Monte-Carlo estimators, and the claim battery."""

import ast
import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dirmarl.graphs
import dirmarl.learner
import dirmarl.oracles
import dirmarl.validation
from dirmarl.graphs import build_artifacts, build_graph
from dirmarl.learner import MessageBus
from dirmarl.oracles import one_point
from dirmarl.policy import BlockLayout
from dirmarl.validation import (
    FAMILIES,
    CheckResult,
    MomentEstimate,
    SyntheticObjective,
    check_smoothing_gap,
    dependency_violations,
    finite_difference_gradient,
    make_synthetic,
    mc_smoothed_gradient,
    oracle_moments,
    run_validation,
    _MomentAccumulator,
)
from helpers import (
    SyntheticEvaluator,
    ascending_reach_sums,
    assert_local_sums_are_reach_sums,
    bus_links,
    closed_reach,
    global_noise_std,
    global_value_bound,
    random_weakly_connected_digraph,
    reference_mc_smoothed_gradient,
    reference_moment_add,
    reference_oracle_moments,
    reference_term_values,
    smoothed_local_gradient,
)


def chain():
    return build_graph(3, [(1, 2), (2, 3)])


# -- instance structure -----------------------------------------------


def test_chain_dependency_sets():
    obj = make_synthetic(chain(), np.random.default_rng(0))
    assert obj.deps == ((1,), (1, 2), (1, 2, 3))
    assert_local_sums_are_reach_sums(obj, chain(), np.random.default_rng(1))


def test_edgeless_graph_terms_are_private():
    graph = build_graph(3, [])
    obj = make_synthetic(graph, np.random.default_rng(0))
    assert obj.deps == ((1,), (2,), (3,))
    assert_local_sums_are_reach_sums(obj, graph, np.random.default_rng(2))
    theta = np.random.default_rng(1).normal(size=obj.total_dim)
    g = obj.gradient(theta)
    for i in (1, 2, 3):
        sl = obj.layout.block_slice(i)
        assert np.array_equal(g[sl], obj.local_gradients(theta)[i - 1][sl])
        assert np.array_equal(g[sl], obj.term_gradient(i, theta)[sl])


def test_gather_covers_exactly_the_dependency_blocks():
    rng = np.random.default_rng(2)
    for family in FAMILIES:
        obj = make_synthetic(chain(), rng, family=family)
        for j in range(1, obj.num_agents + 1):
            want = np.concatenate([
                np.arange(obj.layout.offsets[k - 1], obj.layout.offsets[k])
                for k in obj.deps[j - 1]])
            assert np.array_equal(obj.gather[j - 1], want)
            assert obj.weights[j - 1].shape == want.shape


def test_generated_instances_have_no_dependency_violations():
    rng = np.random.default_rng(3)
    for _ in range(10):
        graph = random_weakly_connected_digraph(rng)
        for family in FAMILIES:
            obj = make_synthetic(graph, rng, family=family)
            assert dependency_violations(obj, rng) == []


def test_dependency_inspection_catches_a_tampered_instance():
    # term 2 secretly reads agent 1's coordinate although 1 cannot
    # influence 2 in the edgeless graph
    layout = BlockLayout((1, 1))
    obj = SyntheticObjective(
        family="quadratic", layout=layout,
        deps=((1,), (2,)), learning=build_artifacts(build_graph(2, [])).learning,
        gather=(np.array([0]), np.array([0, 1])),
        weights=(np.array([1.0]), np.array([1.0, 1.0])),
        targets=(np.array([0.0]), np.array([0.0, 0.0])),
        offsets=np.zeros(2), amplitudes=None, noise_std=np.zeros(2))
    assert dependency_violations(obj, np.random.default_rng(0)) == [(2, 1)]


def test_quadratic_and_abs_instances_draw_alike():
    # the two families differ only in how a term reads its draws
    graph = random_weakly_connected_digraph(np.random.default_rng(4), 2, 8)
    quad = make_synthetic(graph, np.random.default_rng(5), family="quadratic")
    kinks = make_synthetic(graph, np.random.default_rng(5), family="abs")
    for field in ("weights", "targets"):
        for a, b in zip(getattr(quad, field), getattr(kinks, field)):
            assert a.tobytes() == b.tobytes()
    assert quad.offsets.tobytes() == kinks.offsets.tobytes()
    assert quad.amplitudes is None and kinks.amplitudes is None


def test_make_synthetic_validates_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="family"):
        make_synthetic(chain(), rng, family="cubic")
    with pytest.raises(ValueError, match="block dims"):
        make_synthetic(chain(), rng, block_dims=(1, 2))
    with pytest.raises(ValueError, match="block 2 has dimension 0"):
        make_synthetic(chain(), rng, block_dims=(1, 0, 2))
    with pytest.raises(ValueError, match="noise_std"):
        make_synthetic(chain(), rng, noise_std=(0.1, 0.1))
    with pytest.raises(ValueError, match="noise_std"):
        make_synthetic(chain(), rng, noise_std=-0.5)


@given(seed=st.integers(0, 2 ** 32 - 1), family=st.sampled_from(FAMILIES))
@settings(max_examples=25, deadline=None)
def test_block_gradients_of_global_and_local_sums_coincide(seed, family):
    rng = np.random.default_rng(seed)
    graph = random_weakly_connected_digraph(rng)
    obj = make_synthetic(graph, rng, family=family)
    theta = rng.uniform(-2.0, 2.0, size=obj.total_dim)
    g = obj.gradient(theta)
    local = obj.local_gradients(theta, 0.3)
    for i in range(1, obj.num_agents + 1):
        sl = obj.layout.block_slice(i)
        assert np.array_equal(g[sl], obj.local_gradients(theta)[i - 1][sl])
        sg = obj.gradient(theta, 0.3)
        sgl = smoothed_local_gradient(obj, i, theta, 0.3)
        assert np.array_equal(sg[sl], sgl[sl])
        assert np.array_equal(obj.local_gradients(theta, 0.3)[i - 1], sgl)
        assert np.array_equal(local[i - 1], sgl)


# -- values, gradients, smoothing -------------------------------------


def test_local_totals_sum_the_assembly_terms():
    rng = np.random.default_rng(5)
    obj = make_synthetic(chain(), rng, family="cosine")
    theta = rng.normal(size=obj.total_dim)
    v = obj.term_values(theta)[0]
    assert obj.totals(theta, 1)[0] == pytest.approx(v.sum(), rel=1e-15)
    assert obj.totals(theta, 3)[0] == v[2]
    assert obj.totals(theta)[0] == pytest.approx(float(v.sum()), rel=1e-15)
    batch = rng.normal(size=(4, obj.total_dim))
    np.testing.assert_allclose(obj.totals(batch, 2),
                               obj.term_values(batch)[:, 1:].sum(axis=1), rtol=1e-15)


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for family in ("quadratic", "cosine"):
        obj = make_synthetic(chain(), rng, family=family)
        theta = rng.uniform(-1.5, 1.5, size=obj.total_dim)
        fd = finite_difference_gradient(obj.totals, theta, 1e-5)
        np.testing.assert_allclose(fd, obj.gradient(theta), rtol=1e-6, atol=1e-8)


def test_abs_gradient_matches_away_from_kinks():
    rng = np.random.default_rng(9)
    obj = make_synthetic(chain(), rng, family="abs")
    theta = rng.uniform(1.5, 2.5, size=obj.total_dim)  # targets live in [-1, 1]
    fd = finite_difference_gradient(obj.totals, theta, 1e-6)
    np.testing.assert_allclose(fd, obj.gradient(theta), rtol=1e-6, atol=1e-8)


def test_quadratic_smoothing_shifts_values_but_not_gradients():
    rng = np.random.default_rng(11)
    obj = make_synthetic(chain(), rng, family="quadratic")
    theta = rng.normal(size=obj.total_dim)
    for delta in (0.0, 0.1, 0.7):
        assert np.array_equal(obj.gradient(theta, delta), obj.gradient(theta))


def test_smoothed_gradients_match_monte_carlo():
    rng = np.random.default_rng(15)
    for family in FAMILIES:
        obj = make_synthetic(chain(), rng, family=family)
        theta = rng.uniform(-1.0, 1.0, size=obj.total_dim)
        delta = 0.4
        est = mc_smoothed_gradient(obj.totals, theta, delta, 200_000, rng)
        z = (est.mean - obj.gradient(theta, delta)) / est.standard_errors
        stat = float((z * z).sum())
        d = obj.total_dim
        assert stat < d + 3.0 * math.sqrt(2.0 * d)


def test_smoothing_at_zero_radius_is_the_plain_objective():
    rng = np.random.default_rng(17)
    for family in FAMILIES:
        obj = make_synthetic(chain(), rng, family=family)
        theta = rng.uniform(1.2, 1.8, size=obj.total_dim)  # off the abs kinks
        np.testing.assert_allclose(obj.gradient(theta, 0.0),
                                   obj.gradient(theta), rtol=1e-12)
    with pytest.raises(ValueError, match="delta"):
        obj.gradient(theta, -0.1)
    with pytest.raises(ValueError, match="delta"):
        obj.term_gradient(1, theta, -0.1)  # a negative radius would flip the abs slope


def test_bound_constants_for_the_cosine_family():
    rng = np.random.default_rng(21)
    obj = make_synthetic(chain(), rng, family="cosine", noise_std=0.3)
    # value bound: local sums stay inside the amplitude budget
    for i in (1, 2, 3):
        cap = obj.local_value_bound(i)
        amps = [float(obj.amplitudes[j - 1]) for j in closed_reach(chain())[i - 1]]
        assert cap == pytest.approx(sum(amps), rel=1e-15)
        for _ in range(20):
            theta = rng.uniform(-3.0, 3.0, size=obj.total_dim)
            assert abs(obj.totals(theta, i)[0]) <= cap + 1e-12
    # Lipschitz bound: local sums never move faster than the constant
    for _ in range(20):
        a = rng.uniform(-2.0, 2.0, size=obj.total_dim)
        b = rng.uniform(-2.0, 2.0, size=obj.total_dim)
        move = abs(obj.totals(a, 1)[0] - obj.totals(b, 1)[0])
        assert move <= obj.local_lipschitz(1) * np.linalg.norm(a - b) + 1e-12
    assert global_value_bound(obj) == pytest.approx(obj.local_value_bound(1), rel=1e-15)
    assert obj.local_noise_std(3) == pytest.approx(0.3, rel=1e-12)
    assert obj.local_noise_std(1) == pytest.approx(0.3 * math.sqrt(3.0), rel=1e-12)
    assert global_noise_std(obj) == pytest.approx(0.3 * math.sqrt(3.0), rel=1e-12)
    quad = make_synthetic(chain(), rng, family="quadratic")
    assert quad.local_value_bound(1) == math.inf
    assert quad.local_lipschitz(1) == math.inf
    # abs terms are unbounded with Lipschitz constant ||w_j||
    kinks = make_synthetic(chain(), rng, family="abs")
    assert kinks.local_value_bound(2) == math.inf
    assert kinks.local_lipschitz(2) == pytest.approx(
        sum(float(np.linalg.norm(kinks.weights[j - 1])) for j in (2, 3)), rel=1e-15)


def test_term_bounds_per_family():
    rng = np.random.default_rng(22)
    graph = random_weakly_connected_digraph(rng, 2, 8)
    for family in FAMILIES:
        obj = make_synthetic(graph, rng, family=family)
        values, lipschitz = obj.term_bounds
        assert obj.term_bounds is obj.term_bounds  # computed once
        for j in range(obj.num_agents):
            norm = float(np.linalg.norm(obj.weights[j]))
            if family == "cosine":
                assert values[j] == obj.amplitudes[j]
                assert lipschitz[j] == obj.amplitudes[j] * norm
            else:
                assert values[j] == math.inf
                assert lipschitz[j] == (norm if family == "abs" else math.inf)
        want = ascending_reach_sums(graph, np.stack((values, lipschitz)))
        for i in range(1, obj.num_agents + 1):
            assert obj.local_value_bound(i) == want[0, i - 1]
            assert obj.local_lipschitz(i) == want[1, i - 1]


def test_synthetic_evaluator_replays_noise():
    rng = np.random.default_rng(23)
    obj = make_synthetic(chain(), rng, family="quadratic", noise_std=0.5)
    ev = SyntheticEvaluator(obj)
    assert ev.num_agents == 3
    noise = ev.draw_noise(rng)
    theta = rng.normal(size=obj.total_dim)
    a = ev.evaluate(theta, noise)
    b = ev.evaluate(theta, noise)
    assert np.array_equal(a, b)
    np.testing.assert_allclose(a - obj.term_values(theta)[0], noise, rtol=1e-12)
    silent = SyntheticEvaluator(make_synthetic(chain(), rng))
    assert np.all(silent.draw_noise(rng) == 0.0)


# -- Monte-Carlo smoothed gradients -----------------------------------


def test_mc_zero_objective_is_exactly_zero():
    est = mc_smoothed_gradient(lambda t: np.zeros(len(t)), np.zeros(3), 0.5,
                               2000, np.random.default_rng(0))
    assert est.sample_count == 2000
    assert np.all(est.mean == 0.0)
    assert np.all(est.standard_errors == 0.0)


def test_mc_recovers_the_quadratic_smoothed_gradient():
    theta = np.zeros(4)
    theta[0] = 1.0
    est = mc_smoothed_gradient(lambda t: (t * t).sum(axis=1), theta, 0.3,
                               400_000, np.random.default_rng(1))
    target = 2.0 * theta
    assert np.all(np.abs(est.mean - target) <= 3.0 * est.standard_errors)


def test_mc_recovers_a_linear_gradient_at_any_radius():
    c = np.array([1.5, -2.0, 0.25])
    for delta in (0.05, 1.0):
        est = mc_smoothed_gradient(lambda t: t @ c, np.array([0.3, -1.0, 2.0]), delta,
                                   300_000, np.random.default_rng(2))
        assert np.all(np.abs(est.mean - c) <= 3.0 * est.standard_errors)


def test_monte_carlo_checks_draw_one_stream_in_any_batch_size():
    # mc_smoothed_gradient and check_smoothing_gap evaluate theta + delta u
    # for the same probes as one (num_samples, d) draw, batch by batch
    theta, delta, samples = np.array([0.5, -1.0, 2.0]), 0.3, 7001
    want = theta + delta * np.random.default_rng(6).standard_normal((samples, 3))
    for batch_size in (1000, 3000, 16384):
        seen = []

        def f(points):
            seen.append(points.copy())
            return points.sum(axis=1)

        mc_smoothed_gradient(f, theta, delta, samples, np.random.default_rng(6),
                             batch_size=batch_size)
        assert np.concatenate(seen).tobytes() == want.tobytes()
        assert max(len(b) for b in seen) == min(batch_size, samples)
        seen.clear()
        check_smoothing_gap(f, 1.0, delta, theta[None, :], samples,
                            np.random.default_rng(6), batch_size=batch_size)
        exact, *draws = seen
        assert exact.tobytes() == theta[None, :].tobytes()
        assert np.concatenate(draws).tobytes() == want.tobytes()


def test_mc_input_validation():
    f = lambda t: np.zeros(len(t))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="1000"):
        mc_smoothed_gradient(f, np.zeros(2), 0.5, 999, rng)
    with pytest.raises(ValueError, match="delta"):
        mc_smoothed_gradient(f, np.zeros(2), 0.0, 2000, rng)
    with pytest.raises(ValueError, match="non-finite"):
        mc_smoothed_gradient(lambda t: np.full(len(t), np.inf), np.zeros(2), 0.5, 2000, rng)
    with pytest.raises(ValueError, match="shape"):
        mc_smoothed_gradient(lambda t: np.zeros((len(t), 1)), np.zeros(2), 0.5, 2000, rng)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="batch_size"):
            mc_smoothed_gradient(f, np.zeros(2), 0.5, 2000, rng, batch_size=bad)


# -- finite differences -----------------------------------------------


def test_finite_differences_exact_on_linear_functions():
    c = np.array([2.0, -1.0, 0.5, 3.0])
    theta = np.array([1.0, 2.0, -0.5, 0.0])
    for h in (1e-6, 0.1, 2.0):
        fd = finite_difference_gradient(lambda t: t @ c, theta, h)
        np.testing.assert_allclose(fd, c, rtol=1e-9)


def test_finite_differences_on_a_quadratic():
    theta = np.zeros(3)
    theta[0] = 1.0
    fd = finite_difference_gradient(lambda t: (t * t).sum(axis=1), theta, 1e-5)
    np.testing.assert_allclose(fd, [2.0, 0.0, 0.0], atol=1e-8)


def test_finite_difference_validation():
    f = lambda t: t.sum(axis=1)
    with pytest.raises(ValueError, match="h must be > 0"):
        finite_difference_gradient(f, np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        finite_difference_gradient(lambda t: np.full(len(t), np.nan), np.zeros(2), 1e-5)


# -- smoothing gap ----------------------------------------------------


def test_smoothing_gap_of_a_linear_function_is_noise():
    c = np.array([1.0, -2.0, 0.5])
    report = check_smoothing_gap(lambda t: t @ c, 1.0, 0.3, np.zeros((2, 3)),
                                 50_000, np.random.default_rng(3))
    assert report.passed
    assert np.all(report.gaps <= 3.0 * report.stderrs)


def test_smoothing_gap_of_the_one_norm_respects_the_ceiling():
    d = 6
    rng = np.random.default_rng(4)
    thetas = rng.uniform(-1.0, 1.0, size=(3, d))
    report = check_smoothing_gap(lambda t: np.abs(t).sum(axis=1), math.sqrt(d),
                                 0.1, thetas, 100_000, rng)
    assert report.passed
    assert report.bound == pytest.approx(0.1 * d, rel=1e-12)  # delta sqrt(d) sqrt(d)
    assert report.worst_gap <= report.bound


def test_smoothing_gap_vanishes_with_the_radius():
    f = lambda t: np.abs(t).sum(axis=1)
    rng = np.random.default_rng(5)
    small = check_smoothing_gap(f, 2.0, 1e-4, np.ones((1, 4)), 20_000, rng)
    assert small.worst_gap < 1e-3
    assert small.passed


def test_smoothing_gap_validation():
    f = lambda t: t.sum(axis=1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="lipschitz"):
        check_smoothing_gap(f, 0.0, 0.1, np.zeros((1, 2)), 2000, rng)
    with pytest.raises(ValueError, match="delta"):
        check_smoothing_gap(f, 1.0, -0.1, np.zeros((1, 2)), 2000, rng)
    with pytest.raises(ValueError, match="1000"):
        check_smoothing_gap(f, 1.0, 0.1, np.zeros((1, 2)), 10, rng)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="batch_size"):
            check_smoothing_gap(f, 1.0, 0.1, np.zeros((1, 2)), 2000, rng, batch_size=bad)
    with pytest.raises(ValueError, match="thetas"):
        check_smoothing_gap(f, 1.0, 0.1, np.zeros((0, 3)), 2000, rng)


NAN = float("nan")


@pytest.mark.parametrize("call, match", [
    (lambda obj, f, rng: obj.gradient(np.zeros(obj.total_dim), NAN), "delta must be >= 0"),
    (lambda obj, f, rng: obj.local_gradients(np.zeros(obj.total_dim), NAN),
     "delta must be >= 0"),
    (lambda obj, f, rng: obj.term_gradient(1, np.zeros(obj.total_dim), NAN),
     "delta must be >= 0"),
    (lambda obj, f, rng: mc_smoothed_gradient(f, np.zeros(2), NAN, 2000, rng),
     "delta must be > 0"),
    (lambda obj, f, rng: check_smoothing_gap(f, NAN, 0.1, np.zeros((1, 2)), 2000, rng),
     "lipschitz must be > 0"),
    (lambda obj, f, rng: check_smoothing_gap(f, 1.0, NAN, np.zeros((1, 2)), 2000, rng),
     "delta must be >= 0"),
    (lambda obj, f, rng: finite_difference_gradient(f, np.zeros(2), NAN), "h must be > 0"),
], ids=["gradient", "local_gradients", "term_gradient", "mc_delta", "gap_lipschitz",
        "gap_delta", "fd_h"])
def test_nan_arguments_are_named(call, match):
    # NaN fails every comparison, so each check is written to pass only
    # valid values; a NaN must not run on into a NaN result or a
    # "non-finite values" error that blames the objective
    for family in ("cosine", "abs"):  # the families whose gradients read delta
        obj = make_synthetic(chain(), np.random.default_rng(0), family=family)
        with pytest.raises(ValueError, match=match):
            call(obj, lambda t: t.sum(axis=1), np.random.default_rng(0))


# -- second moments ---------------------------------------------------


def _sample_moments(samples: np.ndarray, layout: BlockLayout) -> MomentEstimate:
    """Moments of (m, d) samples through the battery's accumulator."""
    acc = _MomentAccumulator(layout.total_dim, layout.num_agents)
    g = np.ascontiguousarray(samples.T)
    acc.add(g, g * g, np.stack([layout.block_norms(row) ** 2 for row in samples], axis=1))
    return acc.finish()


def test_second_moment_of_a_zero_sampler_is_zero():
    layout = BlockLayout((2, 3))
    est = _sample_moments(np.zeros((10_000, 5)), layout)
    assert np.all(est.mean == 0.0)
    assert np.all(est.standard_errors == 0.0)
    assert np.all(est.block_second_moments == 0.0)
    assert np.all(est.block_second_moment_stderrs == 0.0)


def test_second_moment_of_a_constant_value_one_point_sampler():
    # value c, radius 1: the block second moment is c^2 d_i
    layout = BlockLayout((2, 3))
    c = 2.0
    est = _sample_moments(c * np.random.default_rng(1).standard_normal((40_000, 5)), layout)
    want = np.array([c * c * 2, c * c * 3])
    assert np.all(np.abs(est.block_second_moments - want)
                  <= 3.0 * est.block_second_moment_stderrs)


def test_oracle_moment_sampler_is_unbiased_and_ranked():
    rng = np.random.default_rng(6)
    obj = make_synthetic(chain(), rng, family="quadratic", block_dims=(2, 2, 2))
    theta = rng.uniform(-1.0, 1.0, size=obj.total_dim)
    target = obj.gradient(theta)
    one = oracle_moments(obj, theta, 0.3, 200_000, rng, flavor="one_point")
    two = oracle_moments(obj, theta, 0.3, 200_000, rng, flavor="two_point")
    for est in (one, two):
        z = (est.mean - target) / est.standard_errors
        stat = float((z * z).sum())
        assert stat < obj.total_dim + 3.0 * math.sqrt(2.0 * obj.total_dim)
    # the baseline evaluation removes the value-scale variance
    assert two.block_second_moments.sum() < one.block_second_moments.sum()


def test_oracle_moment_validation():
    rng = np.random.default_rng(0)
    obj = make_synthetic(chain(), rng)
    theta = np.zeros(obj.total_dim)
    with pytest.raises(ValueError, match="flavor"):
        oracle_moments(obj, theta, 0.3, 2000, rng, flavor="three_point")
    with pytest.raises(ValueError, match="scope"):
        oracle_moments(obj, theta, 0.3, 2000, rng, scope="federated")
    with pytest.raises(ValueError, match="delta"):
        oracle_moments(obj, theta, 0.0, 2000, rng)
    for few in (0, 1):
        with pytest.raises(ValueError, match="num_samples"):
            oracle_moments(obj, theta, 0.3, few, rng)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="batch_size"):
            oracle_moments(obj, theta, 0.3, 2000, rng, batch_size=bad)


# -- coordinate-major core against the row-major reference ------------


def _assert_same_moments(got: MomentEstimate, want: MomentEstimate, rtol: float) -> None:
    assert got.sample_count == want.sample_count
    for field in ("mean", "standard_errors", "block_second_moments",
                  "block_second_moment_stderrs"):
        a, b = getattr(got, field), getattr(want, field)
        if b is None:
            assert a is None, field
        else:
            np.testing.assert_allclose(a, b, rtol=rtol, atol=0.0, err_msg=field)


def test_term_values_match_the_row_major_reference():
    rng = np.random.default_rng(31)
    for _ in range(5):
        graph = random_weakly_connected_digraph(rng, 2, 9)
        for family in FAMILIES:
            obj = make_synthetic(graph, rng, family=family)
            batch = rng.uniform(-2.0, 2.0, size=(37, obj.total_dim))
            np.testing.assert_allclose(obj.term_values(batch),
                                       reference_term_values(obj, batch),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(obj.term_values(batch[0])[0],
                                       reference_term_values(obj, batch[0])[0],
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(obj.totals(batch),
                                       reference_term_values(obj, batch).sum(axis=1),
                                       rtol=1e-12, atol=1e-12)


def test_moment_accumulator_matches_the_row_major_reference():
    rng = np.random.default_rng(32)
    layout = BlockLayout((2, 1, 3))
    new, ref = _MomentAccumulator(6, 3), _MomentAccumulator(6, 3)
    for m in (5, 1, 700):
        g = rng.standard_normal((m, 6)) * rng.uniform(0.1, 10.0, size=6)
        block_sq = np.stack([layout.block_norms(row) ** 2 for row in g])
        gT = np.ascontiguousarray(g.T)
        new.add(gT, gT * gT, np.ascontiguousarray(block_sq.T))
        reference_moment_add(ref, g, block_sq)
    _assert_same_moments(new.finish(), ref.finish(), rtol=1e-12)


FLAVORS = ("one_point", "two_point", "residual")
SCOPES = ("distributed", "centralized")


@pytest.mark.parametrize("scope", SCOPES)
@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("family", FAMILIES)
def test_oracle_moments_match_the_row_major_reference(family, flavor, scope):
    rng = np.random.default_rng(
        [FAMILIES.index(family), FLAVORS.index(flavor), SCOPES.index(scope)])
    graph = random_weakly_connected_digraph(rng, 2, 8)
    obj = make_synthetic(graph, rng, family=family,
                         noise_std=rng.uniform(0.0, 0.5, size=graph.num_agents))
    theta = rng.uniform(-1.5, 1.5, size=obj.total_dim)
    ref_rng = np.random.default_rng()
    ref_rng.bit_generator.state = rng.bit_generator.state
    # 10_001 samples in batches of 3000: three full batches and a ragged one
    got = oracle_moments(obj, theta, 0.4, 10_001, rng, flavor=flavor, scope=scope,
                         batch_size=3000)
    want = reference_oracle_moments(obj, theta, 0.4, 10_001, ref_rng, flavor=flavor,
                                    scope=scope, batch_size=3000)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    _assert_same_moments(got, want, rtol=1e-9)


def test_mc_smoothed_gradient_matches_the_row_major_reference():
    rng = np.random.default_rng(33)
    graph = random_weakly_connected_digraph(rng, 3, 8)
    obj = make_synthetic(graph, rng, family="cosine")
    theta = rng.uniform(-1.0, 1.0, size=obj.total_dim)
    ref_rng = np.random.default_rng()
    ref_rng.bit_generator.state = rng.bit_generator.state
    got = mc_smoothed_gradient(lambda t: obj.totals(t, 1), theta, 0.3, 10_001, rng,
                               batch_size=3000)
    want = reference_mc_smoothed_gradient(
        lambda t: reference_term_values(obj, t)[:, np.asarray(closed_reach(graph)[0]) - 1]
        .sum(axis=1),
        theta, 0.3, 10_001, ref_rng, batch_size=3000)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    _assert_same_moments(got, want, rtol=1e-9)


# -- the battery ------------------------------------------------------


def test_validation_battery_passes_quickly():
    results = run_validation(seed=0, quick=True)
    assert all(isinstance(r, CheckResult) for r in results)
    names = [r.name for r in results]
    assert names == [
        "block_gradient_identity",
        "smoothed_block_agreement",
        "oracle_unbiasedness",
        "second_moment_bounds",
        "smoothing_gap",
        "scope_variance_ordering",
        "dependency_structure",
    ]
    failed = [r for r in results if not r.passed]
    assert failed == []


# Pinned bits of the quick and the full battery at seed 0: every array
# and scalar that oracle_moments, mc_smoothed_gradient and
# check_smoothing_gap return, then each check's name, verdict and detail.
# A refactor of the battery or of the estimation step it runs must leave
# these digests unchanged.
BATTERY_SHA256 = {
    True: "bd2ca7e973def14b25ea6d4cdb34a10b95213ea211cf79bf85b87021d5e2b044",
    False: "635c0d4e20d6a4cc5a61d2fec2b4aab221b0873c7d130e167204560172043556",
}


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_battery_bits_are_pinned(monkeypatch, quick):
    digest = hashlib.sha256()
    calls = {}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[name] = calls.get(name, 0) + 1
            for field in dataclasses.fields(out):
                value = getattr(out, field.name)
                digest.update(b"-" if value is None
                              else np.asarray(value, dtype=np.float64).tobytes())
            return out
        return wrapped

    for name in ("oracle_moments", "mc_smoothed_gradient", "check_smoothing_gap"):
        monkeypatch.setattr(dirmarl.validation, name,
                            spy(name, getattr(dirmarl.validation, name)))
    for r in run_validation(seed=0, quick=quick):
        digest.update(f"{r.name}|{r.passed}|{r.detail}\n".encode())
    assert calls == {"oracle_moments": 21, "mc_smoothed_gradient": 8,
                     "check_smoothing_gap": 1}
    assert digest.hexdigest() == BATTERY_SHA256[quick]


def test_monte_carlo_points_reach_the_terms_coordinate_major(monkeypatch):
    # Each term gathers its coordinates' rows of the points; those rows
    # are contiguous only when the points array is C-ordered (d, m).
    rng = np.random.default_rng(13)
    obj = make_synthetic(chain(), rng, family="cosine", noise_std=0.1)
    theta = rng.uniform(-1.0, 1.0, size=obj.total_dim)
    layouts = []
    term_rows = SyntheticObjective._term_rows

    def spy(self, tT):
        layouts.append((tT.shape, tT.flags.c_contiguous))
        return term_rows(self, tT)

    monkeypatch.setattr(SyntheticObjective, "_term_rows", spy)
    mc_smoothed_gradient(obj.totals, theta, 0.3, 2500, rng, batch_size=1000)
    oracle_moments(obj, theta, 0.3, 2500, rng, flavor="residual", batch_size=1000)
    assert [shape for shape, _ in layouts] == (
        [(obj.total_dim, 1000)] * 2 + [(obj.total_dim, 500)]
        + ([(obj.total_dim, 1000)] * 4 + [(obj.total_dim, 500)] * 2))
    assert all(contiguous for _, contiguous in layouts)


class _RecordingGenerator:
    """Forwards ``standard_normal`` to a real generator and logs each
    requested shape."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.requests = []

    def standard_normal(self, size):
        self.requests.append(size)
        return self.rng.standard_normal(size)


def test_every_monte_carlo_loop_draws_in_one_order():
    # 2,500 samples in batches of 1,000: per batch, the probes u then the
    # noise, then the previous episode's probes and noise for residual
    rng = np.random.default_rng(14)
    obj = make_synthetic(chain(), rng, family="cosine", noise_std=0.1)
    theta = rng.uniform(-1.0, 1.0, size=obj.total_dim)
    d, n = obj.total_dim, obj.num_agents

    def requests(run):
        recorder = _RecordingGenerator(15)
        run(recorder)
        return recorder.requests

    def expected(*widths):
        return [(m, r) for m in (1000, 1000, 500) for r in widths]

    for flavor, widths in (("one_point", (d, n)), ("two_point", (d, n)),
                           ("residual", (d, n, d, n))):
        assert requests(lambda g: oracle_moments(
            obj, theta, 0.3, 2500, g, flavor=flavor, batch_size=1000)) == expected(*widths)
    assert requests(lambda g: mc_smoothed_gradient(
        obj.totals, theta, 0.3, 2500, g, batch_size=1000)) == expected(d)
    assert requests(lambda g: check_smoothing_gap(
        obj.totals, 1.0, 0.3, theta, 2500, g, batch_size=1000)) == expected(d)


def test_validation_has_one_monte_carlo_draw_loop():
    # Only the draw generator and make_synthetic may call standard_normal;
    # a call in a nested function counts for its enclosing top-level one.
    with open(dirmarl.validation.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())

    def draws(node):
        return sum(isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                   and call.func.attr == "standard_normal" for call in ast.walk(node))

    tops = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    tops += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, ast.FunctionDef)]
    assert {fn.name for fn in tops if draws(fn)} == {"_normal_batches", "make_synthetic"}
    assert draws(tree) == sum(draws(fn) for fn in tops)  # none outside a function


def test_quick_battery_builds_each_demo_graph_once(monkeypatch):
    built = []
    passes = dirmarl.graphs.strongly_connected_components

    def counted(graph):
        built.append(graph)
        return passes(graph)

    build_artifacts.cache_clear()
    monkeypatch.setattr(dirmarl.graphs, "strongly_connected_components", counted)
    run_validation(seed=0, quick=True)
    assert len(built) <= 3
    assert len(set(built)) == len(built)


def test_oracle_moments_reach_the_estimators_through_the_learner(monkeypatch):
    # The benchmark's tracer wraps the estimators at dirmarl.learner, so
    # the battery's estimates must look them up there, one call a batch.
    rng = np.random.default_rng(12)
    obj = make_synthetic(chain(), rng, family="cosine", noise_std=0.1)
    theta = rng.uniform(-1.0, 1.0, size=obj.total_dim)
    calls = []
    for name in ("one_point", "two_point", "residual"):
        original = getattr(dirmarl.learner, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(dirmarl.learner, name, counted)
    for flavor in ("one_point", "two_point", "residual"):
        for scope in ("distributed", "centralized"):
            calls.clear()
            oracle_moments(obj, theta, 0.3, 2500, rng, flavor=flavor, scope=scope,
                           batch_size=1000)
            assert calls == [flavor] * 3


# -- the battery runs the production estimators and exchange ----------


def _reversed_difference(values_perturbed, values_base, u, delta, layout):
    return one_point(np.asarray(values_base, dtype=float)
                     - np.asarray(values_perturbed, dtype=float), u, delta, layout)


def _added_baseline(values_perturbed, values_base, u, delta, layout):
    return one_point(np.asarray(values_perturbed, dtype=float)
                     + np.asarray(values_base, dtype=float), u, delta, layout)


def _check(results, name):
    return next(r for r in results if r.name == name)


def test_battery_fails_on_a_broken_production_two_point(monkeypatch):
    # The mutants replace the code of ``oracles.two_point`` itself, so
    # every caller sees them.  A reversed difference is biased and the
    # quick unbiasedness check catches it; an added baseline is still
    # unbiased (E[J(theta) u] = 0) but inflates the second moment past
    # the full battery's ceiling.
    two_point = dirmarl.oracles.two_point
    original = two_point.__code__
    with monkeypatch.context() as mp:
        mp.setattr(two_point, "__code__", _reversed_difference.__code__)
        assert not _check(run_validation(seed=0, quick=True), "oracle_unbiasedness").passed
        mp.setattr(two_point, "__code__", _added_baseline.__code__)
        assert not _check(run_validation(seed=0), "second_moment_bounds").passed
    assert two_point.__code__ is original
    assert two_point(np.ones(1), np.ones(1), np.ones(1), 1.0, BlockLayout((1,)))[0] == 0.0


def test_oracle_moments_assemble_with_the_message_bus(monkeypatch):
    rng = np.random.default_rng(8)
    obj = make_synthetic(chain(), rng, family="quadratic", noise_std=0.1)
    theta = rng.uniform(-1.0, 1.0, size=obj.total_dim)

    def means(scope):
        return oracle_moments(obj, theta, 0.3, 4000, np.random.default_rng(9),
                              scope=scope).mean

    gather = MessageBus.gather

    def loses_a_message(self, values):
        hat = gather(self, values)
        j, i = max(bus_links(self))
        hat[i - 1] -= values[j - 1]  # agent i never hears from j
        return hat

    clean = {scope: means(scope) for scope in ("distributed", "centralized")}
    with monkeypatch.context() as mp:
        mp.setattr(MessageBus, "gather", loses_a_message)
        assert not np.array_equal(means("distributed"), clean["distributed"])
        # the centralized scope sums every value without the bus
        assert means("centralized").tobytes() == clean["centralized"].tobytes()
    assert MessageBus.gather is gather
    assert means("distributed").tobytes() == clean["distributed"].tobytes()
