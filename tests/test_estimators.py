import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softpc.clustering import em_factorized, encode_rows, soft_kmeans
from softpc.estimators import (
    CONT_MAX_ABS,
    EPSILON_W,
    SIGMA_FLOOR,
    CategoricalTable,
    Gaussian,
    Multinomial,
    distinct,
    fit_gaussian,
    fit_multinomial,
    key_places,
    leaf_log_mass,
    leaf_log_pdf,
)
from softpc.independence import discretize, partition_scope, weighted_chi2
from softpc.learner import WeightedDataset
from softpc.schema import Schema, Variable


def oracle_gaussian(values, weights):
    """Literal transcription of the weighted-Bessel formulas."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    s = weights.sum()
    q = (weights**2).sum()
    mu = (weights * values).sum() / s
    var = s / (s * s - q) * (weights * (values - mu) ** 2).sum()
    return mu, math.sqrt(var)


_MIXED = Schema([Variable("cat", 2), Variable("cont")])

# every entry that takes clustering or independence row weights, on rows
# whose column 0 is a level and column 1 a real
WEIGHTED_ENTRIES = {
    "soft_kmeans": lambda m, w: soft_kmeans(m, w, (0, 1), _MIXED, 2, 4.0),
    "em_factorized": lambda m, w: em_factorized(m, w, (0, 1), _MIXED, 2),
    "discretize": lambda m, w: discretize(m[:, 1], w),
    "partition_scope": lambda m, w: partition_scope(m, w, (0, 1), _MIXED, 0.01),
    "weighted_chi2": lambda m, w: weighted_chi2(m[:, 0], m[:, 0], w),
}


class TestCheckWeights:
    @pytest.mark.parametrize("entry", sorted(WEIGHTED_ENTRIES))
    @pytest.mark.parametrize("bad", ["nan", "inf", "zero", "negative", "short", "long", "2-d"])
    def test_every_entry_rejects_weights_that_are_not_finite_and_positive(self, rng, entry, bad):
        # a NaN weight made the clusterers fail inside rng.choice, after a
        # RuntimeWarning, and discretize binned any weight it was given
        matrix = np.column_stack([rng.integers(0, 2, size=40), rng.normal(size=40)])
        call = WEIGHTED_ENTRIES[entry]
        call(matrix, np.ones(40))
        weights = {"short": np.ones(39), "long": np.ones(41), "2-d": np.ones((40, 1))}.get(bad)
        if weights is None:
            weights = np.ones(40)
            weights[7] = {"nan": np.nan, "inf": np.inf, "zero": 0.0, "negative": -1.0}[bad]
        with pytest.raises(ValueError, match="weights"):
            call(matrix, weights)


# every entry of the learners that takes continuous values, on rows whose
# column 0 is a level and column 1 a real
CONTINUOUS_ENTRIES = {
    **{name: WEIGHTED_ENTRIES[name]
       for name in ("soft_kmeans", "em_factorized", "discretize", "partition_scope")},
    "encode_rows": lambda m, w: encode_rows(m, w, (0, 1), _MIXED),
    "fit_gaussian": lambda m, w: fit_gaussian(m[:, 1], w),
    "WeightedDataset": lambda m, w: WeightedDataset(m, w, _MIXED),
}


class TestContinuousValues:
    @pytest.mark.parametrize("entry", sorted(CONTINUOUS_ENTRIES))
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "past-bound", "1e200"])
    def test_every_entry_rejects_values_that_are_not_finite_or_past_the_bound(
            self, rng, entry, bad):
        # one NaN or inf in a continuous column gave NaN memberships from the
        # clusterers, a NaN bin edge from discretize and Gaussian(nan, nan)
        # from fit_gaussian, with at most a RuntimeWarning
        matrix = np.column_stack([rng.integers(0, 2, size=40), rng.normal(size=40)])
        matrix[:2, 1] = CONT_MAX_ABS, -CONT_MAX_ABS  # the bound itself is allowed
        call = CONTINUOUS_ENTRIES[entry]
        call(matrix, np.ones(40))
        matrix[7, 1] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "1e200": -1e200,
                        "past-bound": np.nextafter(CONT_MAX_ABS, np.inf)}[bad]
        match = "must be finite" if bad in ("nan", "inf", "-inf") else "at most 1e\\+100 in magnitude"
        with pytest.raises(ValueError, match=match):
            call(matrix, np.ones(40))

    def test_categorical_columns_are_not_held_to_it(self):
        # the clusterers check only the scope's continuous columns; a level
        # column has its own rule, and a column outside the scope none
        matrix = np.array([[0.0, 1.0, np.nan], [1.0, 2.0, np.inf], [1.0, 0.5, 0.0]])
        assert soft_kmeans(matrix, np.ones(3), (0, 1), _MIXED, 2, 4.0).shape == (3, 2)


class TestKeyPlaces:
    # the one fold of categorical codes into int64 keys: soft k-means'
    # distinct rows and Circuit.log_density's repeated rows both key by it
    @pytest.mark.parametrize("arities, keyed", [
        ([2] * 62, True), ([2] * 63, False),
        ([7] * 22, True), ([7] * 22 + [2], False),  # 7**22 ~ 3.9e18; twice that is past 2**62
        ([1024] * 6 + [4], True), ([1024] * 6 + [5], False),  # exactly 2**62, then past it
        ([5, 3, 2], True), ([], True)])
    def test_keys_up_to_two_to_the_62(self, arities, keyed):
        places = key_places(arities)
        assert (places is not None) == keyed
        if keyed:
            assert places.dtype == np.int64 and places.shape == (len(arities),)
            # each place is the product of the arities after it
            assert places.tolist() == [math.prod(arities[j + 1:]) for j in range(len(arities))]
            top = np.array([a - 1 for a in arities], dtype=np.int64)
            assert int(top @ places) == math.prod(arities) - 1

    def test_keys_sort_as_rows_do_first_column_first(self, rng):
        arities = [3, 2, 7, 5, 2, 4]
        codes = np.column_stack([rng.integers(0, a, size=500) for a in arities])
        keys = codes @ key_places(arities)
        assert keys.dtype == np.int64
        assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(codes.T[::-1]))
        # equal keys, equal rows
        _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
        assert np.array_equal(codes[first][inv], codes)


def void_rows(rows):
    """Each row of a float matrix as one raw-byte key, as soft k-means keys them."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


class TestDistinct:
    # the one grouping of equal keys: log_density's folded row keys, soft
    # k-means' distinct rows and discretize's distinct values

    @staticmethod
    def keys(kind, rng):
        if kind == "int64-ties":
            return rng.integers(0, 40, size=500).astype(np.int64)
        if kind == "int64-all-distinct":
            return rng.permutation(1 << 12).astype(np.int64) * 7919
        if kind == "int64-one-row":
            return np.array([5], dtype=np.int64)
        if kind == "void-rows":
            # levels 0, 1, 2 and -0.0: the bytes of -0.0 differ from 0.0's
            rows = rng.integers(0, 3, size=(800, 4)).astype(float)
            rows[rng.random(rows.shape) < 0.1] = -0.0
            return void_rows(rows)
        if kind == "void-one-row":
            return void_rows(np.array([[1.0, -0.0, 2.0]]))
        if kind == "float-signed-zeros":
            values = rng.choice([-0.0, 0.0, 1.5, -2.0, np.inf, -np.inf, 1e-300], size=300)
            return np.concatenate([values, rng.normal(size=50)])
        assert kind == "float-one-row"
        return np.array([-0.0])

    @pytest.mark.parametrize("kind", [
        "int64-ties", "int64-all-distinct", "int64-one-row", "void-rows", "void-one-row",
        "float-signed-zeros", "float-one-row"])
    def test_matches_np_unique(self, kind, rng):
        keys = self.keys(kind, rng)
        uniq, first, inv = np.unique(keys, return_index=True, return_inverse=True)
        got_first, got_inv = distinct(keys)
        assert got_first.dtype == np.intp and got_inv.dtype == np.intp
        assert np.array_equal(got_first, first) and np.array_equal(got_inv, inv.ravel())
        # the same distinct keys, to the byte: the first of 0.0 and -0.0 in a group
        assert keys[got_first].tobytes() == uniq.tobytes()

    def test_signed_zeros_share_one_group_of_floats(self):
        first, inv = distinct(np.array([0.0, 1.0, -0.0, 0.0, -0.0]))
        assert first.tolist() == [0, 1] and inv.tolist() == [0, 1, 0, 0, 0]


class TestLeafFitWeights:
    @pytest.mark.parametrize("fit", [fit_gaussian, lambda v, w: fit_multinomial(v, w, 2)],
                             ids=["gaussian", "multinomial"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0, -EPSILON_W / 10])
    def test_non_finite_or_negative_weight_raises(self, fit, bad):
        # an infinite weight gave Gaussian(nan, nan) or probs (nan, 0.0) with
        # only a RuntimeWarning; a NaN or negative one was dropped silently
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fit([0.0, 1.0, 1.0, 0.0], [bad, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("values, weights, match", [
        ([0.0, 1.0], [1.0], "equal length"), ([[0.0, 1.0]], [[1.0, 1.0]], "1-d"),
        ([], [], "empty column")])
    def test_malformed_columns_raise(self, values, weights, match):
        for fit in (fit_gaussian, lambda v, w: fit_multinomial(v, w, 2)):
            with pytest.raises(ValueError, match=match):
                fit(values, weights)


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
        assert fit_gaussian([0.0, 2.0, 100.0], [1.0, 1.0, 0.0]) == ref

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

    def test_unknown_distribution_is_a_type_error(self):
        with pytest.raises(TypeError, match="unknown leaf distribution"):
            leaf_log_pdf("uniform", np.zeros(3))

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

    def test_gaussian_keeps_the_textbook_arithmetic(self):
        """The in-place sequence gives the bits of the formula written out,
        also where z * z alone would overflow (|z| > 1.34e154) and where
        the square is subnormal."""
        mu = np.array([[0.0], [1.5], [-2.0e3]])
        sigma = np.array([[1.0], [0.7], [1e-3]])
        x = np.array([0.0, 1.0, -3.5, 1.4e154, -1.9e154, 1e-160, 5e-324, 1e300, 2.5e3])
        z = (x - mu) / sigma
        with np.errstate(over="ignore"):
            expected = -0.5 * z * z - np.log(sigma) - 0.5 * math.log(2.0 * math.pi)
            got = leaf_log_pdf(Gaussian(mu, sigma), x)
        assert np.isneginf(got).any() and np.isfinite(got[0, 3])  # z * z alone overflows there
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()

    @pytest.mark.parametrize("which", ["categorical", "gaussian"])
    @pytest.mark.parametrize("n", [8, 1])
    def test_out_writes_its_block_bit_for_bit(self, which, n):
        """With ``out``, a stacked leaf fills a (k, n) row block of a larger
        table with the allocating call's bits, touches nothing else, and
        returns the block itself."""
        rng = np.random.default_rng(19)
        if which == "categorical":
            probs = rng.dirichlet(np.ones(3), size=5)
            probs[1, 2] = probs[3, 0] = 0.0  # -inf for leaf 1 at code 2, leaf 3 at code 0
            with np.errstate(divide="ignore"):
                dist = CategoricalTable(np.log(probs))
            x = np.array([2.0, 0.0, 1.0, 2.0, 0.0, 1.0, 1.0, 2.0])[:n]
        else:
            dist = Gaussian(rng.normal(size=(5, 1)), rng.uniform(0.1, 2.0, size=(5, 1)))
            x = rng.normal(size=n) * 3.0
        expected = leaf_log_pdf(dist, x)
        assert expected.shape == (5, n)
        table = np.full((11, n), 7.0)
        block = table[4:9]
        assert leaf_log_pdf(dist, x, out=block) is block
        assert block.view(np.int64).tolist() == expected.view(np.int64).tolist()
        assert (table[:4] == 7.0).all() and (table[9:] == 7.0).all()
        if which == "categorical":
            assert np.isneginf(block).sum() == np.isneginf(expected).sum() > 0


# what the evaluator's leaf layer sets: leaf_log_mass leaves the warnings of
# its discarded branch and of infinite bounds (0 * inf, inf - inf, log 0)
# to its caller, as leaf_log_pdf leaves its overflow
_LEAF_ERRSTATE = dict(divide="ignore", over="ignore", invalid="ignore")


class TestLeafLogMass:
    """``leaf_log_mass`` from ``-inf`` is the log CDF; the mpmath sweep
    holds the whole rule, the tails and the narrow intervals, to its
    worst error."""

    @np.errstate(**_LEAF_ERRSTATE)
    def test_midpoint_and_limits(self):
        dist = Gaussian(2.0, 3.0)
        assert leaf_log_mass(dist, -math.inf, 2.0) == pytest.approx(-math.log(2), abs=1e-15)
        assert leaf_log_mass(dist, -math.inf, math.inf) == 0.0
        assert leaf_log_mass(dist, -math.inf, -math.inf) == -math.inf

    def test_matches_quadrature(self):
        from scipy.integrate import quad

        dist = Gaussian(-1.0, 0.5)
        for x in (-2.0, -1.0, 0.0, 1.0):
            expected, _ = quad(lambda t: math.exp(leaf_log_pdf(dist, t)), -15, x)
            assert math.exp(leaf_log_mass(dist, -math.inf, x)) == pytest.approx(expected, abs=1e-10)

    def test_monotone(self):
        dist = Gaussian(0.0, 1.0)
        logcdf = [leaf_log_mass(dist, -math.inf, x) for x in np.linspace(-5, 5, 50)]
        assert np.all(np.diff(logcdf) > 0)

    @pytest.mark.parametrize("n", [8, 1])
    def test_out_writes_its_block_bit_for_bit(self, n):
        """Stacked leaves fill a (k, n) row block with the allocating call's
        (k, 1) column in every row, narrow leaves among them."""
        dist = Gaussian(np.array([[0.0], [3.0], [-2.0], [0.5]]), np.array([[1.0], [1e-3], [1e3], [0.2]]))
        expected = leaf_log_mass(dist, 2.99, 3.0)
        assert expected.shape == (4, 1) and np.isfinite(expected).all()
        table = np.full((7, n), 7.0)
        block = table[2:6]
        assert leaf_log_mass(dist, 2.99, 3.0, out=block) is block
        assert (block.view(np.int64) == expected.view(np.int64)).all()
        assert (table[:2] == 7.0).all() and (table[6:] == 7.0).all()

    @pytest.mark.parametrize("lo, hi", [(0.0, 1e-3), (-1e-3, 0.0), (5.0, 5.0 + 2e-3)])
    def test_a_block_of_a_narrow_and_a_wide_leaf(self, lo, hi):
        """The interval is narrow for the leaf of sigma 1 and wide for the
        one at ``SIGMA_FLOOR``: the block takes the narrow test, the wide
        leaf alone skips it, and each leaf gets the bits of its own call.
        Both are within the sweep's bounds of 50-digit mpmath (the leaf at
        ``SIGMA_FLOOR`` lies up to 5000 standard deviations out)."""
        mpmath = pytest.importorskip("mpmath")
        dist = Gaussian(np.array([[0.0], [0.0]]), np.array([[1.0], [SIGMA_FLOOR]]))
        got = leaf_log_mass(dist, lo, hi)
        alone = [leaf_log_mass(Gaussian(0.0, sigma), lo, hi) for sigma in (1.0, SIGMA_FLOOR)]
        assert got[:, 0].tolist() == alone
        ctx = mpmath.mp.clone()
        ctx.dps = 50
        root2 = ctx.sqrt(2)
        for value, sigma in zip(alone, (1.0, SIGMA_FLOOR)):
            za, zb = (ctx.mpf(x) / sigma / root2 for x in (lo, hi))
            mass = (ctx.erfc(za) - ctx.erfc(zb) if za + zb > 0
                    else ctx.erfc(-zb) - ctx.erfc(-za)) / 2
            exact = float(ctx.log(mass))
            assert abs(value - exact) <= max(2e-11, 1e-12 * abs(exact))

    @np.errstate(**_LEAF_ERRSTATE)
    def test_matches_mpmath_on_a_sweep(self):
        """Midpoints in [-1000, 1000] and widths 1e-15 to 100 standard
        deviations of N(0, 1) and of a leaf at ``SIGMA_FLOOR``, against
        50-digit mpmath: within 2e-11 of the log mass up to 37 standard
        deviations out, and within 1e-12 of it relatively beyond, where no
        interval reads -inf."""
        mpmath = pytest.importorskip("mpmath")
        ctx = mpmath.mp.clone()
        ctx.dps = 50
        root2 = ctx.sqrt(2)
        mids = [0.0, 0.3, -1.0, 2.5, -7.0, 12.0, 20.0, -30.0, -36.9, 37.0, 37.5, -60.0,
                150.0, -300.0, 1000.0, -1000.0]
        widths = np.geomspace(1e-15, 100, 18).tolist()
        for mu, sigma in [(0.0, 1.0), (0.25, SIGMA_FLOOR)]:
            for m in mids:
                for w in widths:
                    lo, hi = mu + (m - w / 2) * sigma, mu + (m + w / 2) * sigma
                    if lo == hi:  # narrower than a float step there
                        continue
                    za, zb = ((ctx.mpf(x) - mu) / sigma / root2 for x in (lo, hi))
                    # each tail from its own side of the mean, where it does not cancel
                    mass = (ctx.erfc(za) - ctx.erfc(zb) if za + zb > 0
                            else ctx.erfc(-zb) - ctx.erfc(-za)) / 2
                    exact = float(ctx.log(mass))
                    got = leaf_log_mass(Gaussian(mu, sigma), lo, hi)
                    bound = 2e-11 if abs(m) <= 37 else 1e-12 * abs(exact)
                    assert abs(got - exact) <= bound, (mu, sigma, m, w, got, exact)

    @np.errstate(**_LEAF_ERRSTATE)
    def test_intervals_a_few_float_steps_wide_far_out_stay_finite(self):
        """1 to 1e5 float steps wide, 1e6 to 1e12 standard deviations out on
        N(0, 1), where the two log_ndtr round to within a float step of each
        other: within 1e-12 of the log mass relatively, against 50-digit
        mpmath, on both sides of the mean.  One float step at 3e7 read -inf
        when their difference rounded to 0."""
        mpmath = pytest.importorskip("mpmath")
        ctx = mpmath.mp.clone()
        ctx.dps = 50
        root2 = ctx.sqrt(2)
        dist = Gaussian(0.0, 1.0)
        for centre in (1e6, 1e7, 3e7, 1e8, 1e9, 1e10, 1e11, 1e12):
            step = np.nextafter(centre, math.inf) - centre
            for steps in (1, 2, 3, 10, 30, 100, 1e3, 1e4, 1e5):
                lo, hi = centre, centre + steps * step
                mass = (ctx.erfc(ctx.mpf(lo) / root2) - ctx.erfc(ctx.mpf(hi) / root2)) / 2
                exact = float(ctx.log(mass))
                got = leaf_log_mass(dist, lo, hi)
                assert abs(got - exact) <= 1e-12 * abs(exact), (centre, steps, got, exact)
                assert leaf_log_mass(dist, -hi, -lo) == got
