import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import chdtrc
from scipy.stats import chi2_contingency

from softpc.independence import discretize, partition_scope, weighted_chi2
from softpc.schema import Schema, Variable

from conftest import reference_partition_scope


def chi2_tail_oracle(stat, dof):
    """Upper tail by numerical integration of the chi-square density."""

    def pdf(t):
        return t ** (dof / 2 - 1) * math.exp(-t / 2) / (2 ** (dof / 2) * math.gamma(dof / 2))

    val, _ = quad(pdf, stat, stat + 200 * max(dof, 1))
    return val


class TestDiscretize:
    def test_quartile_edges_on_uniform_weights(self):
        values = np.arange(1, 101, dtype=float)
        codes, edges = discretize(values, np.ones(100))
        assert edges.tolist() == [25.5, 50.5, 75.5]
        assert np.bincount(codes).tolist() == [25, 25, 25, 25]

    def test_constant_column_single_bin(self):
        codes, edges = discretize(np.full(10, 3.0), np.ones(10))
        assert edges.size == 0
        assert np.all(codes == 0)

    def test_weighted_cut_by_hand(self):
        # cumulative weights [3, 4] put all three cut points (1, 2, 3) at
        # the first value, so the one cut is after 1.0
        codes, edges = discretize([1.0, 2.0], [3.0, 1.0])
        assert edges.tolist() == [1.5]
        assert codes.tolist() == [0, 1]

    def test_fewer_distinct_values_than_bins(self):
        codes, edges = discretize([0.0, 1.0, 0.0, 1.0], np.ones(4))
        assert edges.size == 1
        assert set(codes.tolist()) == {0, 1}

    def test_weighted_quantile_oracle(self, rng):
        # each bin should carry roughly total/BINS of the weight
        values = rng.normal(size=500)
        weights = rng.uniform(0.1, 2.0, size=500)
        codes, _ = discretize(values, weights)
        masses = np.bincount(codes, weights=weights, minlength=4)
        assert np.all(masses > 0)
        assert masses.max() / weights.sum() < 0.5


class TestWeightedChi2:
    def test_perfect_dependence(self):
        x = np.repeat([0, 1], 500)
        res = weighted_chi2(x, x, np.ones(1000))
        assert res.p_value < 1e-10

    def test_exactly_independent_table(self):
        # 2x2 table with counts (250, 250, 250, 250)
        x = np.repeat([0, 0, 1, 1], 250)
        y = np.tile(np.repeat([0, 1], 250), 2)
        res = weighted_chi2(x, y, np.ones(1000))
        assert res.stat == 0.0
        assert res.p_value == 1.0
        assert res.dof == 1

    def test_duplication_gives_identical_stat(self, rng):
        for _ in range(30):
            n = int(rng.integers(20, 60))
            x = rng.integers(0, 3, size=n)
            y = rng.integers(0, 3, size=n)
            counts = rng.integers(1, 5, size=n)
            a = weighted_chi2(x, y, counts.astype(float))
            b = weighted_chi2(
                np.repeat(x, counts), np.repeat(y, counts), np.ones(counts.sum())
            )
            assert a.stat == b.stat
            assert a.dof == b.dof

    def test_unit_weights_match_classical_pearson(self, rng):
        for _ in range(100):
            r, c = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            n = int(rng.integers(50, 200))
            x = rng.integers(0, r, size=n)
            y = rng.integers(0, c, size=n)
            res = weighted_chi2(x, y, np.ones(n))
            table = np.zeros((r, c))
            np.add.at(table, (x, y), 1)
            table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
            if min(table.shape) <= 1:
                assert res.p_value == 1.0
                continue
            ref = chi2_contingency(table, correction=False)
            assert res.stat == pytest.approx(ref.statistic, abs=1e-9)
            assert res.dof == ref.dof
            assert res.p_value == pytest.approx(ref.pvalue, abs=1e-9)

    def test_uniform_scaling_scales_stat(self, rng):
        x = rng.integers(0, 3, size=200)
        y = (x + rng.integers(0, 2, size=200)) % 3
        base = weighted_chi2(x, y, np.ones(200))
        for c in (0.5, 2.0):
            scaled = weighted_chi2(x, y, np.full(200, c))
            assert scaled.stat == pytest.approx(c * base.stat, rel=1e-12)

    def test_single_effective_category_degenerate(self):
        res = weighted_chi2([0, 0, 0], [0, 1, 1], np.ones(3))
        assert res.p_value == 1.0

    def test_tiny_effective_mass_guard(self):
        # total weight far below 2*r*c: no usable evidence
        x = np.array([0, 1, 0, 1])
        y = np.array([0, 1, 1, 0])
        res = weighted_chi2(x, y, np.full(4, 0.1))
        assert res.p_value == 1.0

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            weighted_chi2([0, 1], [0, 1], [1.0, 0.0])

    def test_rejects_codes_of_unequal_length(self):
        with pytest.raises(ValueError, match="x and y must have equal length"):
            weighted_chi2([0, 1, 1], [0, 1], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, rng, bad):
        # y copies x: a NaN weight used to give p_value 1 here
        x = rng.integers(0, 2, size=200)
        weights = np.ones(200)
        weights[17] = bad
        with pytest.raises(ValueError, match="finite"):
            weighted_chi2(x, x, weights)

    @pytest.mark.parametrize("bad", [-1.0, 0.5, np.nan])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_rejects_codes_that_are_not_levels(self, rng, bad, side):
        # 0.5 used to be truncated to level 0
        codes = {"x": rng.integers(0, 2, size=200).astype(float),
                 "y": rng.integers(0, 2, size=200).astype(float)}
        codes[side][17] = bad
        with pytest.raises(ValueError, match="out of range"):
            weighted_chi2(codes["x"], codes["y"], np.ones(200))


class TestChi2Tail:
    def test_boundaries_and_monotonicity(self):
        assert chdtrc(3, 0.0) == 1.0
        stats = np.linspace(0.01, 30, 40)
        ps = [chdtrc(3, s) for s in stats]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_published_quantile_dof1(self):
        p = chdtrc(1, 3.841)
        assert 0.049 <= p <= 0.051

    def test_matches_numerical_integration(self):
        for dof in (1, 2, 5):
            for stat in (0.5, 2.0, 7.5):
                assert chdtrc(dof, stat) == pytest.approx(
                    chi2_tail_oracle(stat, dof), abs=1e-8
                )


class TestPartitionScope:
    def test_independent_coins_split(self, rng):
        matrix = rng.integers(0, 2, size=(5000, 2)).astype(float)
        groups = partition_scope(matrix, np.ones(5000), (0, 1), Schema.binary(2), 0.01)
        assert groups == [[0], [1]]

    def test_dependent_pair_stays_together(self, rng):
        # the two-component mixture couples X and Y through the latent component
        from softpc import toy

        matrix = toy.generate(500, rng)
        codes = np.column_stack(
            [(matrix[:, 0] > 0).astype(float), (matrix[:, 1] > 0).astype(float)]
        )
        groups = partition_scope(codes, np.ones(1000), (0, 1), Schema.binary(2), 0.01)
        assert groups == [[0, 1]]

    def test_two_latent_pairs_give_two_groups(self, rng):
        n = 4000
        a = rng.integers(0, 2, size=n)
        b = rng.integers(0, 2, size=n)
        flip = lambda z: (z + (rng.random(n) < 0.05)) % 2  # noqa: E731
        matrix = np.column_stack([a, flip(a), b, flip(b)]).astype(float)
        groups = partition_scope(
            matrix, np.ones(n), (0, 1, 2, 3), Schema.binary(4), 0.01
        )
        assert groups == [[0, 1], [2, 3]]

    def test_groups_partition_scope(self, rng):
        for _ in range(20):
            n_vars = int(rng.integers(2, 6))
            n = int(rng.integers(30, 120))
            matrix = rng.integers(0, 2, size=(n, n_vars)).astype(float)
            weights = rng.uniform(0.2, 2.0, size=n)
            scope = tuple(range(n_vars))
            groups = partition_scope(
                matrix, weights, scope, Schema.binary(n_vars), 0.05
            )
            flat = sorted(v for g in groups for v in g)
            assert flat == list(scope)
            assert all(g == sorted(g) for g in groups)

    def test_singleton_scope_passthrough(self, rng):
        matrix = rng.integers(0, 2, size=(10, 2)).astype(float)
        groups = partition_scope(matrix, np.ones(10), (1,), Schema.binary(2), 0.01)
        assert groups == [[1]]

    def test_continuous_columns_discretized(self, rng):
        matrix = rng.normal(size=(3000, 2))
        groups = partition_scope(
            matrix, np.ones(3000), (0, 1), Schema.continuous(2), 0.001
        )
        assert groups == [[0], [1]]


def _random_scope_data(rng):
    """Weighted rows over 2-7 variables: categorical arities 2-5 with unused
    levels, continuous columns, constant columns and coupled pairs."""
    n_vars, n = int(rng.integers(2, 8)), int(rng.integers(5, 400))
    variables, cols = [], []
    for _ in range(n_vars):
        kind = rng.random()
        if kind < 0.25:
            variables.append(Variable("cont"))
            cols.append(rng.normal(size=n).round(int(rng.integers(0, 3))))
        elif kind < 0.35:
            variables.append(Variable("cont") if rng.random() < 0.5 else Variable("cat", 3))
            cols.append(np.full(n, 1.0))
        else:
            arity = int(rng.integers(2, 6))
            variables.append(Variable("cat", arity))
            used = rng.choice(arity, size=int(rng.integers(1, arity + 1)), replace=False)
            cols.append(rng.choice(used, size=n).astype(float))
    matrix = np.column_stack(cols)
    for _ in range(int(rng.integers(0, n_vars))):
        # b copies a function of a on a random share of the rows
        a, b = rng.choice(n_vars, size=2, replace=False)
        copied = matrix[:, a]
        if variables[b].kind == "cat":
            copied = np.floor(copied) % variables[b].arity
        matrix[:, b] = np.where(rng.random(n) < rng.uniform(0.5, 1.0), copied, matrix[:, b])
    # row weights from 0.002 to 20, so some tables hold less than 2*r*c
    weights = rng.uniform(0.05, 2.0, size=n) * 10 ** rng.uniform(-1.5, 1.0)
    return matrix, weights, Schema(variables)


class TestPartitionScopeMatchesPairwiseReference:
    def test_random_weighted_mixed_scopes(self, rng):
        split = joined = 0
        for _ in range(150):
            matrix, weights, schema = _random_scope_data(rng)
            scope = list(rng.permutation(len(schema))[: int(rng.integers(2, len(schema) + 1))])
            for threshold in (1e-6, 0.01, 0.2, 0.9):
                got = partition_scope(matrix, weights, scope, schema, threshold)
                assert got == reference_partition_scope(matrix, weights, scope, schema, threshold)
                split += len(got) > 1
                joined += any(len(g) > 1 for g in got)
        assert split > 50 and joined > 50

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            partition_scope(np.zeros((2, 2)), [1.0, 0.0], (0, 1), Schema.binary(2), 0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, rng, bad):
        # column 1 copies column 0: a NaN weight used to split them apart
        matrix = rng.integers(0, 2, size=(200, 3)).astype(float)
        matrix[:, 1] = matrix[:, 0]
        weights = np.ones(200)
        weights[17] = bad
        with pytest.raises(ValueError, match="finite"):
            partition_scope(matrix, weights, (0, 1, 2), Schema.binary(3), 0.01)

    @pytest.mark.parametrize("value", [-1.0, 2.0, 0.5, np.nan])
    def test_rejects_categorical_values_that_are_not_levels(self, rng, value):
        # column 2 is continuous, a copy of column 0 moved to -1 and 0.5
        matrix = rng.integers(0, 2, size=(200, 3)).astype(float)
        matrix[:, 2] = matrix[:, 0] * 1.5 - 1.0
        schema = Schema([Variable("cat", 2), Variable("cat", 2), Variable("cont")])
        assert partition_scope(matrix, np.ones(200), (0, 1, 2), schema, 0.01) == [[0, 2], [1]]
        matrix[17, 1] = value
        with pytest.raises(ValueError, match="out of range"):
            partition_scope(matrix, np.ones(200), (0, 1, 2), schema, 0.01)
