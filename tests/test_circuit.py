import copy
import functools
import json
import math
import operator
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

import softpc.circuit as circuit_module
from softpc.circuit import (
    Circuit,
    InvalidCircuitError,
    LeafNode,
    ModelParseError,
    ProductNode,
    SumNode,
)
from softpc.estimators import Gaussian, Multinomial
from softpc.schema import Schema

from conftest import (
    all_binary_rows,
    fig1_circuit,
    random_binary_circuit,
    random_mixed_circuit,
    reference_log_value,
    reference_sample,
    small_mixed_circuit,
)


def normal_pdf(x, mu, sigma):
    return math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))


class TestValidate:
    def test_mixture_of_products_is_valid(self):
        assert fig1_circuit().validate() == []

    def test_overlapping_product_scopes_violate_a2(self):
        c = fig1_circuit()
        nodes = list(c.nodes)
        # second product now spans (X, X): overlaps within the product
        nodes[5] = ProductNode((2, 0))
        broken = Circuit(nodes, c.root, c.schema)
        violations = broken.validate()
        assert any("A2" in v for v in violations)

    def test_differing_sum_child_scopes_violate_a1(self):
        schema = Schema.continuous(2)
        nodes = [
            LeafNode(0, Gaussian(0, 1)),
            LeafNode(1, Gaussian(0, 1)),
            ProductNode((0, 1)),
            SumNode((0, 2), (0.5, 0.5)),  # children have scopes {0} and {0,1}
        ]
        violations = Circuit(nodes, 3, schema).validate()
        assert any("A1" in v for v in violations)

    def test_unnormalized_sum_weights(self):
        c = fig1_circuit()
        nodes = list(c.nodes)
        nodes[6] = SumNode((4, 5), (0.6, 0.6))
        violations = Circuit(nodes, 6, c.schema).validate()
        assert len([v for v in violations if "sum weights" in v]) == 1

    def test_multiple_roots_detected(self):
        schema = Schema.continuous(1)
        nodes = [LeafNode(0, Gaussian(0, 1)), LeafNode(0, Gaussian(1, 1))]
        violations = Circuit(nodes, 0, schema).validate()
        assert any("not single-rooted" in v for v in violations)

    def test_child_after_parent_detected(self):
        schema = Schema.continuous(1)
        nodes = [SumNode((1, 1), (0.5, 0.5)), LeafNode(0, Gaussian(0, 1))]
        violations = Circuit(nodes, 0, schema).validate()
        assert any("precede" in v for v in violations)

    def test_incomplete_root_scope_detected(self):
        schema = Schema.continuous(2)
        nodes = [LeafNode(0, Gaussian(0, 1))]
        violations = Circuit(nodes, 0, schema).validate()
        assert any("root scope" in v for v in violations)

    def test_leaf_mismatches_detected(self):
        schema = Schema(
            [schema_var for schema_var in Schema.binary(1)] + list(Schema.continuous(1))
        )
        nodes = [
            LeafNode(0, Gaussian(0, 1)),  # gaussian on categorical
            LeafNode(1, Multinomial((0.5, 0.5))),  # multinomial on continuous
            LeafNode(1, Gaussian(0, -1.0)),  # nonpositive sigma
            ProductNode((0, 1, 2)),
        ]
        violations = Circuit(nodes, 3, schema).validate()
        assert any("gaussian leaf on categorical" in v for v in violations)
        assert any("multinomial leaf on continuous" in v for v in violations)
        assert any("nonpositive sigma" in v for v in violations)

    def test_random_circuits_valid_by_construction(self, rng):
        for _ in range(20):
            assert random_binary_circuit(5, rng).validate() == []


class TestLogDensity:
    def test_mixture_density_matches_hand_formula(self):
        c = fig1_circuit()
        x, y = -0.5, -2.0
        expected = math.log(
            0.5 * normal_pdf(x, -0.5, 1.0) * normal_pdf(y, -2.0, 0.2)
            + 0.5 * normal_pdf(x, 0.5, 1.0) * normal_pdf(y, 2.0, 0.2)
        )
        assert c.log_density([x, y]) == pytest.approx(expected, abs=1e-12)

    def test_single_multinomial_leaf(self):
        c = Circuit([LeafNode(0, Multinomial((0.25, 0.75)))], 0, Schema.binary(1))
        assert c.log_density([1.0]) == pytest.approx(math.log(0.75), abs=1e-15)

    def test_batch_agrees_with_single_rows(self, rng):
        c = fig1_circuit()
        rows = rng.normal(size=(10, 2))
        batch = c.log_density(rows)
        for i, row in enumerate(rows):
            assert batch[i] == pytest.approx(c.log_density(row), abs=1e-13)

    def test_enumeration_sums_to_one(self, rng):
        rows = all_binary_rows(8)
        for _ in range(5):
            c = random_binary_circuit(8, rng)
            total = np.exp(c.log_density(rows)).sum()
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_wrong_row_length_rejected(self):
        with pytest.raises(ValueError):
            fig1_circuit().log_density([0.0])

    @pytest.mark.parametrize("shape", [(1, 2, 4), (3, 2, 1), ()])
    def test_input_that_is_not_rows_rejected(self, shape):
        with pytest.raises(ValueError, match="1-d.*2-d"):
            fig1_circuit().log_density(np.zeros(shape))

    def test_deep_chain_does_not_underflow(self):
        # 200 leaves each contributing probability 1e-3: the linear-domain
        # product (1e-600) underflows double precision, the log result must not
        n = 200
        schema = Schema.categorical([2] * n)
        nodes = [LeafNode(v, Multinomial((1e-3, 1 - 1e-3))) for v in range(n)]
        nodes.append(ProductNode(tuple(range(n))))
        nodes.append(ProductNode((n,)))
        nodes.append(SumNode((n + 1,), (1.0,)))
        c = Circuit(nodes, n + 2, schema)
        val = c.log_density(np.zeros(n))
        assert math.isfinite(val)
        assert val == pytest.approx(n * math.log(1e-3), rel=1e-12)


class TestLogMarginal:
    def test_all_marginalized_is_zero(self):
        assert fig1_circuit().log_marginal([None, None]) == 0.0

    def test_half_plane_mass_matches_integration(self):
        # P(Y <= 0) for the balanced mixture, against a quadrature oracle
        c = fig1_circuit()
        oracle, _ = quad(
            lambda y: 0.5 * normal_pdf(y, -2.0, 0.2) + 0.5 * normal_pdf(y, 2.0, 0.2),
            -60.0,
            0.0,
        )
        got = math.exp(c.log_marginal([None, (-np.inf, 0.0)]))
        assert got == pytest.approx(oracle, abs=1e-9)
        assert got == pytest.approx(0.5, abs=1e-6)

    def test_interval_matches_integration(self):
        c = fig1_circuit()
        lo, hi = -1.0, 1.5

        def x_pdf(x):
            return 0.5 * normal_pdf(x, -0.5, 1.0) + 0.5 * normal_pdf(x, 0.5, 1.0)

        oracle, _ = quad(x_pdf, lo, hi)
        got = math.exp(c.log_marginal([(lo, hi), None]))
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_full_evidence_equals_log_density(self, rng):
        c = random_binary_circuit(6, rng)
        row = rng.integers(0, 2, size=6).astype(float)
        assert c.log_marginal([int(v) for v in row]) == c.log_density(row)

    def test_completions_sum_to_coarser_marginal(self, rng):
        c = random_binary_circuit(8, rng)
        base = [None] * 8
        base[1], base[5] = 1, 0
        coarse = math.exp(c.log_marginal(base))
        total = 0.0
        for a in (0, 1):
            for b in (0, 1):
                q = list(base)
                q[3], q[6] = a, b
                total += math.exp(c.log_marginal(q))
        assert total == pytest.approx(coarse, abs=1e-12)

    def test_interval_on_categorical_rejected(self):
        c = Circuit([LeafNode(0, Multinomial((0.5, 0.5)))], 0, Schema.binary(1))
        with pytest.raises(ValueError):
            c.log_marginal([(0, 1)])

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            fig1_circuit().log_marginal([(1.0, -1.0), None])

    @pytest.mark.parametrize(
        "query",
        [
            ["1", None, None],
            [True, None, None],
            [np.True_, None, None],
            [[1], None, None],
            [None, "0.5", None],
            [None, (0, "a"), None],
            [None, ("a", 1.0), None],
            [None, (False, 1.0), None],
        ],
    )
    def test_non_numeric_entry_rejected(self, query):
        with pytest.raises(ValueError, match="non-numeric"):
            small_mixed_circuit().log_marginal(query)

    def test_numpy_scalars_accepted(self):
        c = small_mixed_circuit()
        query = [np.int64(1), (np.float32(-1.0), 0.5), None]
        assert c.log_marginal(query) == c.log_marginal([1, (-1.0, 0.5), None])


def random_rows(schema, rng, n):
    """Rows with every categorical level (zero-probability ones included)
    and continuous values around the leaf means."""
    cols = [
        rng.integers(0, var.arity, size=n) if var.kind == "cat" else rng.normal(0.0, 1.5, size=n)
        for var in schema
    ]
    return np.column_stack(cols).astype(float)


def random_query(schema, row, rng):
    """Each entry is None, the row's value, or (continuous only) an interval
    that may be open on one side."""
    query = []
    for v, var in enumerate(schema):
        u = rng.random()
        if u < 0.3:
            query.append(None)
        elif var.kind == "cat" or u < 0.6:
            query.append(int(row[v]) if var.kind == "cat" else float(row[v]))
        else:
            lo = float(rng.uniform(-2.0, 0.5))
            hi = lo + float(rng.uniform(0.2, 2.0))
            query.append(((-math.inf, hi), (lo, math.inf), (lo, hi))[int(rng.integers(3))])
    return query


class TestEvaluatorMatchesReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        neg_inf = 0
        for circuit in (random_binary_circuit(6, rng), random_mixed_circuit(rng)):
            rows = random_rows(circuit.schema, rng, 30)
            expected = [reference_log_value(circuit, list(row)) for row in rows]
            assert_allclose(circuit.log_density(rows), expected, rtol=0, atol=1e-12)
            neg_inf += int(np.isneginf(expected).sum())
            for row in rows:
                query = random_query(circuit.schema, row, rng)
                assert_allclose(
                    circuit.log_marginal(query),
                    reference_log_value(circuit, query),
                    rtol=0,
                    atol=1e-12,
                )
        assert neg_inf > 0  # zero-probability levels were exercised

    def test_zero_weight_child_and_intervals(self):
        c = small_mixed_circuit()
        for query in ([None, (-1.0, 0.5), 1], [2, (0.0, math.inf), None], [None, None, None]):
            expected = reference_log_value(c, query)
            assert_allclose(c.log_marginal(query), expected, rtol=0, atol=1e-12)
        nodes = list(c.nodes[:-1]) + [SumNode((5, 6), (0.0, 1.0))]
        zero = Circuit(nodes, 7, c.schema)
        rows = np.array([[0.0, 3.0, 1.0], [2.0, -1.0, 0.0]])
        expected = [reference_log_value(zero, list(r)) for r in rows]
        assert_allclose(zero.log_density(rows), expected, rtol=0, atol=1e-12)

    def test_nan_input_rejected(self):
        c = fig1_circuit()
        with pytest.raises(ValueError, match="NaN"):
            c.log_density([0.0, math.nan])
        with pytest.raises(ValueError, match="NaN"):
            c.log_marginal([math.nan, None])
        with pytest.raises(ValueError, match="NaN"):
            c.log_marginal([None, (math.nan, 1.0)])

    def test_log_density_result_owns_its_data(self, rng):
        c = random_binary_circuit(4, rng)
        out = c.log_density(all_binary_rows(4))
        assert out.base is None

    @pytest.mark.parametrize("chunks", [(1, -1), (1, 0), (1, 1), (3, 7)])
    def test_chunk_boundaries(self, chunks, monkeypatch):
        """Batches of CHUNK-1, CHUNK, CHUNK+1 and 3*CHUNK+7 rows give each
        row exactly its one-row value, whichever chunk it falls in."""
        rng = np.random.default_rng(11)
        c = random_mixed_circuit(rng, n_vars=6)
        monkeypatch.setattr(circuit_module, "_CHUNK_CELLS", 16 * c.n_nodes)
        chunk = c._compiled()[1]
        assert chunk == 16
        rows = random_rows(c.schema, rng, chunks[0] * chunk + chunks[1])
        batch = c.log_density(rows)
        single = np.array([c.log_density(row) for row in rows])
        assert np.array_equal(batch, single)
        assert np.isneginf(batch).any() and np.isfinite(batch).any()
        expected = [reference_log_value(c, list(row)) for row in rows]
        assert_allclose(batch, expected, rtol=0, atol=1e-12)

    def test_root_leaf_without_inner_layers(self):
        gaussian = Circuit([LeafNode(0, Gaussian(0.5, 2.0))], 0, Schema.continuous(1))
        categorical = Circuit([LeafNode(0, Multinomial((0.2, 0.0, 0.8)))], 0,
                              Schema.categorical([3]))
        rows = np.array([[0.0], [1.0], [2.0]])
        for c in (gaussian, categorical):
            expected = [reference_log_value(c, list(row)) for row in rows]
            assert_allclose(c.log_density(rows), expected, rtol=0, atol=1e-12)
            assert c.log_marginal([None]) == 0.0
        assert categorical.log_density(rows)[1] == -math.inf
        query = [(-1.0, 2.0)]
        assert_allclose(gaussian.log_marginal(query), reference_log_value(gaussian, query),
                        rtol=0, atol=1e-12)

    def test_dag_with_nodes_at_mixed_heights(self):
        """Leaves 0 and 1 feed parents at heights 1, 2 and 3, and sums 4
        and 7 have children at different heights."""
        nodes = [
            LeafNode(0, Multinomial((0.3, 0.7))),
            LeafNode(1, Multinomial((0.6, 0.4))),
            LeafNode(1, Multinomial((0.1, 0.9))),
            SumNode((1, 2), (0.5, 0.5)),  # height 1
            SumNode((3, 1), (0.7, 0.3)),  # height 2, children at heights 1 and 0
            ProductNode((0, 4)),  # height 3
            ProductNode((0, 1)),  # height 1
            SumNode((5, 6), (0.4, 0.6)),  # height 4, children at heights 3 and 1
        ]
        c = Circuit(nodes, 7, Schema.binary(2))
        assert c.validate() == []
        rows = all_binary_rows(2)
        expected = [reference_log_value(c, list(row)) for row in rows]
        assert_allclose(c.log_density(rows), expected, rtol=0, atol=1e-12)
        assert np.exp(c.log_density(rows)).sum() == pytest.approx(1.0, abs=1e-12)
        for query in ([None, 1], [0, None], [None, None]):
            assert_allclose(c.log_marginal(query), reference_log_value(c, query), atol=1e-12)

    def test_first_evaluation_from_several_threads(self):
        """Threads that race to build the compiled form of a fresh circuit
        all get the single-threaded result."""
        text = random_mixed_circuit(np.random.default_rng(3), n_vars=8).to_json()
        rows = random_rows(Circuit.from_json(text).schema, np.random.default_rng(4), 500)
        expected = Circuit.from_json(text).log_density(rows)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                c = Circuit.from_json(text)
                barrier = threading.Barrier(4)
                results = [None] * 4

                def work(k):
                    barrier.wait(timeout=10)
                    results[k] = c.log_density(rows)

                threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                for result in results:
                    assert np.array_equal(result, expected)
        finally:
            sys.setswitchinterval(interval)

    def test_peak_memory_is_bounded_by_the_chunk(self):
        """The node-by-row table covers one chunk of rows, never all of them:
        a 20k-row batch on a 681-node circuit peaks near a few chunk tables,
        where a full table would take n_nodes * n_rows * 8 bytes (109 MB)."""
        rng = np.random.default_rng(5)
        n_vars, n_parts, n_rows = 16, 40, 20_000
        nodes, products = [], []
        for _ in range(n_parts):
            for v in range(n_vars):
                p = float(rng.uniform(0.1, 0.9))
                nodes.append(LeafNode(v, Multinomial((p, 1.0 - p))))
            nodes.append(ProductNode(tuple(range(len(nodes) - n_vars, len(nodes)))))
            products.append(len(nodes) - 1)
        nodes.append(SumNode(tuple(products), (1.0 / n_parts,) * n_parts))
        c = Circuit(nodes, len(nodes) - 1, Schema.binary(n_vars))
        assert c.n_nodes >= 500
        rows = rng.integers(0, 2, size=(n_rows, n_vars)).astype(float)
        tracemalloc.start()
        try:
            out = c.log_density(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < c.n_nodes * n_rows * 8 / 10
        table = c.n_nodes * c._compiled()[1] * 8
        assert peak < 3 * table + out.nbytes


class TestSample:
    def test_gaussian_leaf_mean_within_clt_band(self, rng):
        c = Circuit([LeafNode(0, Gaussian(0.0, 1.0))], 0, Schema.continuous(1))
        rows = c.sample(rng, 100_000)
        assert abs(rows.mean()) < 4.0 / math.sqrt(100_000)

    def test_mixture_splits_y_sign_evenly(self, rng):
        rows = fig1_circuit().sample(rng, 10_000)
        frac = (rows[:, 1] > 0).mean()
        assert 0.48 <= frac <= 0.52

    def test_zero_weight_child_never_selected(self, rng):
        schema = Schema.continuous(1)
        nodes = [
            LeafNode(0, Gaussian(0.0, 0.01)),
            LeafNode(0, Gaussian(100.0, 0.01)),
            SumNode((0, 1), (1.0, 0.0)),
        ]
        rows = Circuit(nodes, 2, schema).sample(rng, 2_000)
        assert rows.max() < 50.0

    def test_frequencies_match_density(self, rng):
        from scipy.stats import chisquare

        c = random_binary_circuit(3, rng)
        rows = c.sample(rng, 100_000)
        codes = (rows @ np.array([4.0, 2.0, 1.0])).astype(int)
        observed = np.bincount(codes, minlength=8)
        probs = np.exp(c.log_density(all_binary_rows(3)))
        result = chisquare(observed, 100_000 * probs / probs.sum())
        assert result.pvalue > 0.001


    def test_leaf_shared_by_two_products_gets_rows_from_both(self, rng):
        from scipy.stats import chisquare

        nodes = [
            LeafNode(0, Multinomial((0.2, 0.5, 0.3))),  # under both products
            LeafNode(1, Multinomial((0.9, 0.1))),
            LeafNode(1, Multinomial((0.3, 0.7))),
            ProductNode((0, 1)),
            ProductNode((0, 2)),
            SumNode((3, 4), (0.4, 0.6)),
        ]
        c = Circuit(nodes, 5, Schema.categorical([3, 2]))
        assert c.validate() == []
        n = 60_000
        rows = c.sample(rng, n)
        assert np.isin(rows[:, 0], (0, 1, 2)).all()
        observed = np.bincount((rows @ np.array([2.0, 1.0])).astype(int), minlength=6)
        grid = np.array([[a, b] for a in range(3) for b in range(2)], dtype=float)
        result = chisquare(observed, n * np.exp(c.log_density(grid)))
        assert result.pvalue > 0.001


class FixedDraws:
    """Stands in for a numpy Generator: every uniform is ``u``, every normal 0."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)

    def standard_normal(self, size):
        return np.zeros(size)


# the largest and the smallest uniform a numpy Generator can return
U_TOP = np.nextafter(1.0, 0.0)
U_BOTTOM = 0.0


def joint_codes(circuit, rows):
    """One integer per row over all variables; a continuous variable
    contributes its sign."""
    codes = np.zeros(len(rows), dtype=np.int64)
    for v, var in enumerate(circuit.schema):
        level = rows[:, v].astype(np.int64) if var.kind == "cat" else (rows[:, v] > 0)
        codes = codes * (var.arity if var.kind == "cat" else 2) + level
    return codes


def two_sample_pvalue(a, b):
    """Chi-square p-value that integer codes ``a`` and ``b`` share one distribution."""
    from scipy.stats import chi2_contingency

    size = max(a.max(), b.max()) + 1
    table = np.array([np.bincount(a, minlength=size), np.bincount(b, minlength=size)])
    return chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue


class TestSampleMatchesReference:
    """The compiled sampler against the node-by-node ``reference_sample``."""

    @pytest.mark.parametrize("make", [
        lambda rng: random_binary_circuit(3, rng),
        lambda rng: small_mixed_circuit(),
    ], ids=["binary", "mixed"])
    def test_joint_codes_share_a_distribution(self, make, rng):
        c = make(rng)
        assert len(c.schema) == 3
        n = 100_000
        new = joint_codes(c, c.sample(np.random.default_rng(1), n))
        old = joint_codes(c, reference_sample(c, np.random.default_rng(2), n))
        assert two_sample_pvalue(new, old) > 0.001

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_level_matches_its_marginal(self, seed):
        rng = np.random.default_rng(seed)
        c = random_mixed_circuit(rng, n_vars=6)
        n = 40_000
        rows = c.sample(rng, n)
        for v, var in enumerate(c.schema):
            events = ([(level, rows[:, v] == level) for level in range(var.arity)]
                      if var.kind == "cat" else [((-math.inf, 0.0), rows[:, v] < 0.0)])
            for entry, hit in events:
                query = [None] * len(c.schema)
                query[v] = entry
                p = math.exp(c.log_marginal(query))
                se = math.sqrt(p * (1.0 - p) / n)
                assert abs(hit.mean() - p) <= 4.5 * se + 1e-12, (v, entry)

    def test_each_width_of_a_padded_sum_group(self, rng):
        """Sums of widths 2, 3 and 5 at one height share one group, so the
        narrower ones are padded; each child's frequency matches its weight."""
        from scipy.stats import chisquare

        weights = [(0.3, 0.7), (0.2, 0.5, 0.3), (0.1, 0.3, 0.05, 0.25, 0.3)]
        nodes, sums = [], []
        for v, w in enumerate(weights):
            for level in range(len(w)):  # leaf k puts all its mass on level k
                nodes.append(LeafNode(v, Multinomial(tuple(float(j == level)
                                                           for j in range(len(w))))))
            nodes.append(SumNode(tuple(range(len(nodes) - len(w), len(nodes))), w))
            sums.append(len(nodes) - 1)
        nodes.append(ProductNode(tuple(sums)))
        c = Circuit(nodes, len(nodes) - 1, Schema.categorical([2, 3, 5]))
        assert c.validate() == []
        sum_groups = [g for g in c._compiled()[3] if g[4] is not None]
        assert [g[4].shape for g in sum_groups] == [(4, 3)]
        n = 50_000
        rows = c.sample(rng, n)
        for v, w in enumerate(weights):
            observed = np.bincount(rows[:, v].astype(int), minlength=len(w))
            assert chisquare(observed, n * np.array(w)).pvalue > 0.001


class TestSampleEdgeCases:
    def test_zero_weight_last_child_never_picked_when_weights_fall_short(self):
        schema = Schema.continuous(1)
        nodes = [
            LeafNode(0, Gaussian(0.0, 1.0)),
            LeafNode(0, Gaussian(1.0, 1.0)),
            LeafNode(0, Gaussian(100.0, 1.0)),
            SumNode((0, 1, 2), (0.5, 0.5 - 1e-10, 0.0)),
        ]
        c = Circuit(nodes, 3, schema)
        assert c.validate() == []
        assert c.sample(FixedDraws(U_TOP), 10).ravel().tolist() == [1.0] * 10
        assert c.sample(FixedDraws(U_BOTTOM), 10).ravel().tolist() == [0.0] * 10
        assert c.sample(np.random.default_rng(0), 20_000).max() < 50.0

    def test_zero_weight_first_and_middle_children_never_picked(self):
        nodes = [LeafNode(0, Gaussian(float(k), 1.0)) for k in range(4)]
        nodes.append(SumNode((0, 1, 2, 3), (0.0, 0.6, 0.0, 0.4)))
        c = Circuit(nodes, 4, Schema.continuous(1))
        assert c.sample(FixedDraws(U_BOTTOM), 3).ravel().tolist() == [1.0] * 3
        assert c.sample(FixedDraws(0.6), 3).ravel().tolist() == [3.0] * 3
        assert c.sample(FixedDraws(U_TOP), 3).ravel().tolist() == [3.0] * 3

    def test_zero_probability_last_level_never_drawn(self):
        c = Circuit([LeafNode(0, Multinomial((0.4, 0.6 - 1e-10, 0.0)))], 0,
                    Schema.categorical([3]))
        assert c.validate() == []
        assert c.sample(FixedDraws(U_TOP), 5).ravel().tolist() == [1.0] * 5
        assert c.sample(FixedDraws(U_BOTTOM), 5).ravel().tolist() == [0.0] * 5
        assert set(c.sample(np.random.default_rng(0), 20_000).ravel()) == {0.0, 1.0}

    def test_zero_rows(self):
        c = small_mixed_circuit()
        out = c.sample(np.random.default_rng(0), 0)
        assert out.shape == (0, 3)

    def test_numpy_integer_count_accepted(self):
        assert fig1_circuit().sample(np.random.default_rng(0), np.int64(4)).shape == (4, 2)

    @pytest.mark.parametrize("n", [-1, True, 2.0, 2.5, "3", None])
    def test_bad_count_rejected_before_drawing(self, n):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="non-negative integer"):
            fig1_circuit().sample(rng, n)
        assert rng.bit_generator.state == state

    def test_bit_identical_for_one_seed(self, rng):
        def fresh():
            r = np.random.default_rng(3)
            return random_mixed_circuit(r, n_vars=6)

        c = fresh()
        first = c.sample(np.random.default_rng(7), 1_000)
        again = c.sample(np.random.default_rng(7), 1_000)
        planned = fresh()
        planned.log_density(first)
        after_density = planned.sample(np.random.default_rng(7), 1_000)
        assert first.tobytes() == again.tobytes() == after_density.tobytes()


class TestSerialization:
    def test_round_trip_identity(self):
        c = fig1_circuit()
        again = Circuit.from_json(c.to_json())
        assert again == c
        assert again.to_json() == c.to_json()

    def test_round_trip_preserves_full_precision(self, rng):
        for _ in range(10):
            c = random_binary_circuit(5, rng)
            again = Circuit.from_json(c.to_json())
            assert again.nodes == c.nodes

    def test_truncated_payload_is_parse_error(self):
        text = fig1_circuit().to_json()
        with pytest.raises(ModelParseError):
            Circuit.from_json(text[: len(text) // 2])

    def test_garbage_fields_are_parse_errors(self):
        with pytest.raises(ModelParseError):
            Circuit.from_json('{"schema":[],"root":0,"nodes":[{"type":"nope"}]}')
        with pytest.raises(ModelParseError):
            Circuit.from_json('{"root":0}')

    def test_unknown_variable_kind_is_parse_error(self):
        doc = json.loads(fig1_circuit().to_json())
        doc["schema"][0] = {"kind": "bogus"}
        with pytest.raises(ModelParseError, match="bogus"):
            Circuit.from_json(json.dumps(doc))

    def test_invalid_weights_rejected_on_load(self):
        text = fig1_circuit().to_json().replace("[0.5,0.5]", "[0.6,0.6]")
        with pytest.raises(InvalidCircuitError) as exc_info:
            Circuit.from_json(text)
        assert any("sum weights" in v for v in exc_info.value.violations)

    def test_check_can_be_skipped(self):
        text = fig1_circuit().to_json().replace("[0.5,0.5]", "[0.6,0.6]")
        c = Circuit.from_json(text, check=False)
        assert c.validate() != []


    def test_variable_names_survive_round_trip(self):
        c = small_mixed_circuit()
        again = Circuit.from_json(c.to_json())
        assert [v.name for v in again.schema] == ["colour", "size", None]
        assert again == c

    @pytest.mark.parametrize(
        "path, value, error, match",
        [
            (("nodes", 7, "weights", 0), math.nan, InvalidCircuitError, "non-finite sum"),
            (("nodes", 0, "dist", "probs", 1), math.nan, InvalidCircuitError, "non-finite"),
            (("nodes", 1, "dist", "sigma"), math.nan, InvalidCircuitError, "non-finite"),
            (("nodes", 1, "dist", "sigma"), math.inf, InvalidCircuitError, "non-finite"),
            (("nodes", 3, "dist", "mu"), math.nan, InvalidCircuitError, "non-finite"),
            (("nodes", 1, "var"), False, ModelParseError, "integer"),
            (("nodes", 5, "children"), [False, True, 2], ModelParseError, "integer"),
            (("nodes", 7, "weights"), ["0.4", "0.6"], ModelParseError, "number"),
            (("nodes", 3, "dist", "mu"), "2.0", ModelParseError, "number"),
            (("root",), True, ModelParseError, "integer"),
            (("root",), 7.0, ModelParseError, "integer"),
            (("schema", 0, "arity"), 3.0, ModelParseError, "integer"),
            (("schema", 0, "name"), 5, ModelParseError, "string"),
        ],
        ids=[
            "nan-weight", "nan-prob", "nan-sigma", "inf-sigma", "nan-mu", "bool-var",
            "bool-children", "string-weights", "string-mu", "bool-root", "float-root",
            "float-arity", "int-name",
        ],
    )
    def test_non_finite_or_mistyped_field_rejected(self, path, value, error, match):
        doc = json.loads(small_mixed_circuit().to_json())
        functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
        with pytest.raises(error, match=match):
            Circuit.from_json(json.dumps(doc))


# Values a fuzzed document may hold in place of any field.
FUZZ_VALUES = [math.nan, math.inf, -math.inf, -1, True, False, "x", None, 1.5, 10**400, []]
FUZZ_BASES = [
    (json.loads(fig1_circuit().to_json()), [0.3, -1.2]),
    (json.loads(small_mixed_circuit().to_json()), [2.0, 0.7, 1.0]),
]


def _json_paths(doc, prefix=()):
    """Paths to every value below the top level of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """A base document with one value replaced or one key deleted, and a row
    that is in range for the base schema."""
    base, row = draw(st.sampled_from(FUZZ_BASES))
    doc = copy.deepcopy(base)
    path = draw(st.sampled_from(list(_json_paths(doc))))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(FUZZ_VALUES))
    return json.dumps(doc), row


class TestFromJsonFuzz:
    @settings(derandomize=True, deadline=None, max_examples=800)
    @given(mutated_documents())
    def test_mutated_document_loads_valid_or_fails_cleanly(self, case):
        text, row = case
        try:
            circuit = Circuit.from_json(text)
        except (ModelParseError, InvalidCircuitError):
            return
        assert circuit.validate() == []
        assert not math.isnan(circuit.log_density(row))


class TestCounts:
    def test_node_edge_param_counts(self):
        c = fig1_circuit()
        assert c.n_nodes == 7
        assert c.n_edges == 6
        assert c.n_params == 2 + 4 * 2  # sum weights + four (mu, sigma) pairs
