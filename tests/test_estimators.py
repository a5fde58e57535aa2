import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softpc.estimators import (
    EPSILON_W,
    SIGMA_FLOOR,
    Gaussian,
    Multinomial,
    fit_gaussian,
    fit_multinomial,
    gaussian_cdf,
    leaf_log_pdf,
)


def oracle_gaussian(values, weights):
    """Literal transcription of the weighted-Bessel formulas."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    s = weights.sum()
    q = (weights**2).sum()
    mu = (weights * values).sum() / s
    var = s / (s * s - q) * (weights * (values - mu) ** 2).sum()
    return mu, math.sqrt(var)


class TestMultinomial:
    def test_hand_example_no_smoothing(self):
        dist = fit_multinomial([0, 1, 1, 2], [1, 1, 1, 1], arity=3, alpha=0.0)
        assert dist.probs == (0.25, 0.5, 0.25)

    def test_hand_example_weighted(self):
        # counts: class 0 -> 2.0, class 1 -> 0.5
        dist = fit_multinomial([0, 1, 0], [0.5, 0.5, 1.5], arity=2, alpha=0.0)
        assert dist.probs == (0.8, 0.2)

    def test_laplace_smoothing(self):
        dist = fit_multinomial([0, 0], [1, 1], arity=2, alpha=1.0)
        assert dist.probs == (0.75, 0.25)

    def test_smoothing_keeps_unseen_classes_positive(self):
        dist = fit_multinomial([2, 2, 2], [1, 1, 1], arity=4, alpha=0.01)
        assert all(p > 0 for p in dist.probs)
        assert abs(sum(dist.probs) - 1.0) < 1e-12

    def test_duplication_equals_integer_weights_exactly(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            arity = int(rng.integers(2, 5))
            values = rng.integers(0, arity, size=n)
            counts = rng.integers(1, 5, size=n)
            expanded = np.repeat(values, counts)
            a = fit_multinomial(values, counts.astype(float), arity, alpha=0.01)
            b = fit_multinomial(expanded, np.ones(expanded.size), arity, alpha=0.01)
            assert a.probs == b.probs

    @pytest.mark.parametrize("bad", [np.nan, 1e30, -1.0, 1.5, 2.0])
    def test_rejects_out_of_range(self, bad):
        # arity 2: NaN and 1e30 cast to no int64 code, -1 and 2 lie outside
        # [0, 2), 1.5 is no integer; none may warn on the way to the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="out of range"):
                fit_multinomial([0.0, bad], [1.0, 1.0], arity=2)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            fit_multinomial([0], [1.0], arity=2, alpha=-0.1)


class TestGaussian:
    def test_unit_weights_match_classical_sample_stats(self, rng):
        values = rng.normal(3.0, 2.0, size=200)
        dist = fit_gaussian(values, np.ones(200))
        assert dist.mu == pytest.approx(values.mean(), abs=1e-12)
        assert dist.sigma == pytest.approx(values.std(ddof=1), abs=1e-12)

    def test_hand_example_equal_weights(self):
        # values (0, 2) with weights (2, 2): mu = 1, and the weighted
        # Bessel denominator S^2 - Q = 16 - 8 = 8 gives sigma = sqrt(2)
        dist = fit_gaussian([0.0, 2.0], [2.0, 2.0])
        mu, sigma = oracle_gaussian([0.0, 2.0], [2.0, 2.0])
        assert (mu, sigma) == (1.0, math.sqrt(2.0))
        assert dist.mu == pytest.approx(mu, abs=1e-15)
        assert dist.sigma == pytest.approx(sigma, abs=1e-15)

    def test_matches_oracle_on_random_columns(self, rng):
        for _ in range(200):
            n = int(rng.integers(3, 40))
            values = rng.normal(0, 5, size=n)
            weights = rng.uniform(0.1, 4.0, size=n)
            dist = fit_gaussian(values, weights)
            mu, sigma = oracle_gaussian(values, weights)
            assert dist.mu == pytest.approx(mu, abs=1e-12)
            assert dist.sigma == pytest.approx(max(sigma, SIGMA_FLOOR), abs=1e-10)

    def test_mean_invariant_under_weight_scaling(self, rng):
        values = rng.normal(size=20)
        weights = rng.uniform(0.5, 2.0, size=20)
        a = fit_gaussian(values, weights)
        b = fit_gaussian(values, 7.0 * weights)
        assert a.mu == pytest.approx(b.mu, abs=1e-12)
        # the weighted Bessel correction is invariant under uniform scaling:
        # S/(S^2-Q) has net degree -1 in the scale, cancelling the extra
        # factor in the weighted sum of squares
        assert a.sigma == pytest.approx(b.sigma, rel=1e-12)

    def test_duplication_behaviour(self, rng):
        # the weighted mean is duplication-equivalent; the sigma is not,
        # because the correction denominator (S^2 - Q)/S depends on the
        # weight profile: integer counts give Q = sum c^2, the expanded
        # rows give Q = sum c.  Both sides share the same weighted sum of
        # squared deviations, which this asserts.
        values = rng.normal(size=10)
        counts = rng.integers(1, 6, size=10).astype(float)
        expanded = np.repeat(values, counts.astype(int))
        a = fit_gaussian(values, counts)
        b = fit_gaussian(expanded, np.ones(expanded.size))
        assert a.mu == pytest.approx(b.mu, abs=1e-12)
        s, q = counts.sum(), (counts**2).sum()
        n = expanded.size
        ssq_a = a.sigma**2 * (s * s - q) / s
        ssq_b = b.sigma**2 * (n - 1)
        assert ssq_a == pytest.approx(ssq_b, rel=1e-10)

    def test_single_point_falls_back_to_floor(self):
        dist = fit_gaussian([5.0], [3.0])
        assert dist == Gaussian(5.0, SIGMA_FLOOR)

    def test_zero_spread_hits_floor(self):
        dist = fit_gaussian([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert dist.mu == 1.0
        assert dist.sigma == SIGMA_FLOOR

    def test_near_zero_weights_are_dropped(self):
        # the 1e-9 weight must not drag the mean toward 100
        dist = fit_gaussian([0.0, 2.0, 100.0], [1.0, 1.0, 1e-9])
        ref = fit_gaussian([0.0, 2.0], [1.0, 1.0])
        assert dist == ref

    def test_all_weights_below_threshold_raise(self):
        with pytest.raises(ValueError):
            fit_gaussian([1.0, 2.0], [EPSILON_W / 10, EPSILON_W / 10])

    @given(
        st.lists(st.floats(-50, 50), min_size=3, max_size=20),
        st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_sigma_never_below_floor(self, values, seed):
        weights = np.random.default_rng(seed).uniform(0.01, 3.0, size=len(values))
        dist = fit_gaussian(values, weights)
        assert dist.sigma >= SIGMA_FLOOR
        assert np.isfinite(dist.mu)


class TestLeafLogPdf:
    def test_multinomial_log_pmf(self):
        dist = Multinomial((0.75, 0.25))
        assert leaf_log_pdf(dist, 0) == pytest.approx(math.log(0.75), abs=1e-15)
        out = leaf_log_pdf(dist, np.array([0, 1, 1]))
        assert np.allclose(out, np.log([0.75, 0.25, 0.25]))

    def test_multinomial_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            leaf_log_pdf(Multinomial((0.5, 0.5)), 2)

    @pytest.mark.parametrize(
        "codes", [-1, 0.5, math.nan, math.inf, [0, -1], [1.0, 2.0], [0.0, 1.5], np.int8(-1)]
    )
    def test_multinomial_rejects_codes_that_are_not_levels(self, codes):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="out of range"):
            leaf_log_pdf(Multinomial((0.5, 0.5)), codes)

    def test_multinomial_empty_input(self):
        out = leaf_log_pdf(Multinomial(np.array([[0.5, 0.5], [0.1, 0.9]])), np.empty(0))
        assert out.shape == (2, 0)

    def test_zero_probability_gives_neg_inf(self):
        assert leaf_log_pdf(Multinomial((1.0, 0.0)), 1) == -math.inf

    def test_standard_normal_at_zero(self):
        val = leaf_log_pdf(Gaussian(0.0, 1.0), 0.0)
        assert val == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-15)

    def test_gaussian_matches_quadrature_normalization(self):
        # numerically integrate exp(log pdf) over a wide range
        from scipy.integrate import quad

        dist = Gaussian(1.5, 0.7)
        total, _ = quad(lambda x: math.exp(leaf_log_pdf(dist, x)), -20, 20)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestGaussianCdf:
    def test_midpoint_and_limits(self):
        dist = Gaussian(2.0, 3.0)
        assert gaussian_cdf(dist, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert gaussian_cdf(dist, math.inf) == 1.0
        assert gaussian_cdf(dist, -math.inf) == 0.0

    def test_matches_quadrature(self):
        from scipy.integrate import quad

        dist = Gaussian(-1.0, 0.5)
        for x in (-2.0, -1.0, 0.0, 1.0):
            expected, _ = quad(lambda t: math.exp(leaf_log_pdf(dist, t)), -15, x)
            assert gaussian_cdf(dist, x) == pytest.approx(expected, abs=1e-10)

    def test_monotone(self):
        dist = Gaussian(0.0, 1.0)
        xs = np.linspace(-5, 5, 50)
        cdf = gaussian_cdf(dist, xs)
        assert np.all(np.diff(cdf) > 0)
