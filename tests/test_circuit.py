import copy
import functools
import hashlib
import json
import math
import operator
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

import softpc
import softpc.circuit as circuit_module
from softpc.circuit import (
    Circuit,
    InvalidCircuitError,
    LeafNode,
    ModelParseError,
    ProductNode,
    SumNode,
)
from softpc.estimators import Gaussian, Multinomial, key_places
from softpc.learner import Hyperparams, WeightedDataset, learn_spn, soft_learn
from softpc.schema import Schema, Variable

from conftest import (
    all_binary_rows,
    fig1_circuit,
    pinned_data,
    random_binary_circuit,
    random_mixed_circuit,
    reference_height_grouped,
    reference_log_value,
    reference_sample,
    reference_to_json,
    reference_validate,
    small_mixed_circuit,
)


class FloatSubclass(float):
    """A float that is not of type float, so it takes the ABC check."""


def normal_pdf(x, mu, sigma):
    return math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))


def _fig1_with(index, node):
    """``fig1_circuit`` with node ``index`` replaced."""
    c = fig1_circuit()
    nodes = list(c.nodes)
    nodes[index] = node
    return Circuit(nodes, c.root, c.schema)


def _leaves_under(parent, variables, n_vars=2):
    """Gaussian leaves on ``variables`` under one parent made by ``parent``
    from their indices; the schema has ``n_vars`` continuous variables."""
    nodes = [LeafNode(v, Gaussian(0, 1)) for v in variables]
    nodes.append(parent(tuple(range(len(nodes)))))
    return Circuit(nodes, len(nodes) - 1, Schema.continuous(n_vars))


def _sum(children):
    return SumNode(children, (1 / len(children),) * len(children))


# Malformed circuits, by name: those TestValidate asserts on, and more
# that TestValidateMatchesReference pins to the frozenset-scope reference.
MALFORMED = {
    # second product now spans (X, X): overlaps within the product
    "overlapping-product": lambda: _fig1_with(5, ProductNode((2, 0))),
    # the sum's children have scopes {0} and {0, 1}
    "differing-sum-children": lambda: Circuit(
        [LeafNode(0, Gaussian(0, 1)), LeafNode(1, Gaussian(0, 1)), ProductNode((0, 1)),
         SumNode((0, 2), (0.5, 0.5))], 3, Schema.continuous(2)),
    "unnormalized-sum": lambda: _fig1_with(6, SumNode((4, 5), (0.6, 0.6))),
    "two-roots": lambda: Circuit(
        [LeafNode(0, Gaussian(0, 1)), LeafNode(0, Gaussian(1, 1))], 0, Schema.continuous(1)),
    "child-after-parent": lambda: Circuit(
        [SumNode((1, 1), (0.5, 0.5)), LeafNode(0, Gaussian(0, 1))], 0, Schema.continuous(1)),
    "incomplete-root-scope": lambda: Circuit(
        [LeafNode(0, Gaussian(0, 1))], 0, Schema.continuous(2)),
    "leaf-mismatches": lambda: Circuit(
        [LeafNode(0, Gaussian(0, 1)),  # gaussian on categorical
         LeafNode(1, Multinomial((0.5, 0.5))),  # multinomial on continuous
         LeafNode(1, Gaussian(0, -1.0)),  # nonpositive sigma
         ProductNode((0, 1, 2))], 3, Schema([*Schema.binary(1), *Schema.continuous(1)])),
    "invalid-weights-on-load": lambda: Circuit._parse(
        fig1_circuit().to_json().replace("[0.5,0.5]", "[0.6,0.6]")),
    "root-out-of-range": lambda: Circuit(fig1_circuit().nodes, 7, Schema.continuous(2)),
    "no-children": lambda: _fig1_with(4, ProductNode(())),
    "child-out-of-range": lambda: _fig1_with(6, SumNode((4, 9, -1), (0.5, 0.25, 0.25))),
    "child-is-itself": lambda: _fig1_with(5, ProductNode((2, 5))),
    "weight-count-mismatch": lambda: _fig1_with(6, SumNode((4, 5), (1.0,))),
    "negative-weight": lambda: _fig1_with(6, SumNode((4, 5), (1.5, -0.5))),
    "nan-first-weight": lambda: _fig1_with(6, SumNode((4, 5), (math.nan, -0.5))),
    "inf-weights": lambda: _fig1_with(6, SumNode((4, 5), (math.inf, -math.inf))),
    "bad-multinomials": lambda: Circuit(
        [LeafNode(0, Multinomial((0.5, 0.7))), LeafNode(1, Multinomial((math.nan, -0.1, 1.1))),
         LeafNode(1, Multinomial((1.2, -0.2))), ProductNode((0, 1)), ProductNode((0, 2))],
        3, Schema.categorical([2, 3])),
    "non-finite-gaussians": lambda: _fig1_with(1, LeafNode(1, Gaussian(math.nan, -math.inf))),
    "unknown-leaf-distribution": lambda: _fig1_with(0, LeafNode(0, "uniform")),
    "leaf-root": lambda: Circuit(fig1_circuit().nodes, 0, Schema.continuous(2)),
    # each distinct out-of-schema variable is its own variable in a scope
    "out-of-schema-under-product": lambda: _leaves_under(ProductNode, (0, 1, 5, 6)),
    "out-of-schema-under-sum": lambda: _leaves_under(_sum, (5, 6)),
    "one-out-of-schema-variable-twice": lambda: _leaves_under(ProductNode, (0, 1, 7, 7)),
    "negative-and-huge-variables": lambda: _leaves_under(ProductNode, (0, 1, -1, 10**12, 10**400)),
    "huge-variables-under-sum": lambda: _leaves_under(_sum, (10**400, 10**400 + 1)),
}


class TestVariable:
    @pytest.mark.parametrize("kind, arity, name, match", [
        ("ordinal", None, None, "unknown variable kind"), ("cat", None, None, "arity >= 2"),
        ("cat", 1, None, "arity >= 2"), ("cont", 2, None, "continuous variables have no arity"),
        ("cat", 2.5, None, "integer"), ("cat", 3.0, None, "integer"),
        ("cat", True, None, "integer"), ("cat", np.float64(3.0), None, "integer"),
        ("cont", None, 5, "string"), ("cat", 2, b"x", "string")])
    def test_malformed_variable_rejected(self, kind, arity, name, match):
        with pytest.raises(ValueError, match=match):
            Variable(kind, arity, name)

    def test_categorical_schema_keeps_the_arity_rule(self):
        # it cast each arity with int(), so 2.7 became a binary variable
        assert Schema.categorical(np.array([2, 3])) == Schema.categorical([2, 3])
        with pytest.raises(ValueError, match="integer"):
            Schema.categorical([2.7])

    def test_numpy_integer_arity_is_stored_as_an_int_and_round_trips(self):
        # an np.int64 arity learned, then failed json's encoder on save
        variable = Variable("cat", np.int64(3), "x")
        assert type(variable.arity) is int and variable == Variable("cat", 3, "x")
        c = Circuit([LeafNode(0, Multinomial((0.2, 0.3, 0.5)))], 0, Schema([variable]))
        back = Circuit.from_json(c.to_json())
        assert back == c and back.to_json() == c.to_json()


class TestValidate:
    def test_mixture_of_products_is_valid(self):
        assert fig1_circuit().validate() == []

    def test_overlapping_product_scopes_violate_a2(self):
        violations = MALFORMED["overlapping-product"]().validate()
        assert any("A2" in v for v in violations)

    def test_differing_sum_child_scopes_violate_a1(self):
        violations = MALFORMED["differing-sum-children"]().validate()
        assert any("A1" in v for v in violations)

    def test_unnormalized_sum_weights(self):
        violations = MALFORMED["unnormalized-sum"]().validate()
        assert len([v for v in violations if "sum weights" in v]) == 1

    def test_multiple_roots_detected(self):
        violations = MALFORMED["two-roots"]().validate()
        assert any("not single-rooted" in v for v in violations)

    def test_child_after_parent_detected(self):
        circuit = MALFORMED["child-after-parent"]()
        assert any("precede" in v for v in circuit.validate())
        # the evaluator's plan refuses it too, rather than reading a later slot
        with pytest.raises(ValueError, match=r"children \(1, 1\) do not precede it"):
            circuit.log_density([0.0])

    def test_incomplete_root_scope_detected(self):
        violations = MALFORMED["incomplete-root-scope"]().validate()
        assert any("root scope" in v for v in violations)

    def test_leaf_mismatches_detected(self):
        violations = MALFORMED["leaf-mismatches"]().validate()
        assert any("gaussian leaf on categorical" in v for v in violations)
        assert any("multinomial leaf on continuous" in v for v in violations)
        assert any("nonpositive sigma" in v for v in violations)

    def test_random_circuits_valid_by_construction(self, rng):
        for _ in range(20):
            assert random_binary_circuit(5, rng).validate() == []

    def test_distinct_out_of_schema_variables_do_not_overlap(self):
        assert MALFORMED["out-of-schema-under-product"]().validate() == [
            "node 2: leaf variable 5 out of schema",
            "node 3: leaf variable 6 out of schema",
            "root scope does not cover all variables",
        ]
        assert "node 2: sum children have differing scopes (A1)" in (
            MALFORMED["out-of-schema-under-sum"]().validate())
        assert "node 4: product children overlap in scope (A2)" in (
            MALFORMED["one-out-of-schema-variable-twice"]().validate())


def run_fresh(code: str) -> list:
    """Run ``code`` in a new interpreter that imports this softpc; returns
    the words it prints."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(softpc.__file__)))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout.split()


def test_import_leaves_scipy_sparse_unloaded():
    """scipy.sparse adds ~15 ms to an import; only evaluation loads it."""
    code = ("import sys, softpc\n"
            "print('scipy.sparse' in sys.modules)\n"
            "from softpc.circuit import Circuit, LeafNode\n"
            "from softpc.estimators import Gaussian\n"
            "from softpc.schema import Schema\n"
            "c = Circuit([LeafNode(0, Gaussian(0.0, 1.0))], 0, Schema.continuous(1))\n"
            "c.log_density([0.5])\n"
            "print('scipy.sparse' in sys.modules)\n")
    assert run_fresh(code) == ["False", "True"]


class TestScipySpecialOnFirstUse:
    """scipy.special adds ~0.3 s to an import; only interval queries and
    chi-square tests load it, at their first call."""

    def test_loading_and_evaluating_leave_it_unloaded(self):
        code = ("import sys, numpy as np, softpc, softpc.cli\n"
                "loaded = lambda: print('scipy.special' in sys.modules)\n"
                "loaded()\n"
                "from softpc.circuit import Circuit, LeafNode, ProductNode, SumNode\n"
                "from softpc.estimators import Gaussian, Multinomial\n"
                "from softpc.schema import Schema, Variable\n"
                "nodes = [LeafNode(0, Gaussian(-0.5, 1.0)), LeafNode(1, Multinomial((0.2, 0.8))),\n"
                "         LeafNode(0, Gaussian(0.5, 2.0)), LeafNode(1, Multinomial((0.6, 0.4))),\n"
                "         ProductNode((0, 1)), ProductNode((2, 3)), SumNode((4, 5), (0.3, 0.7))]\n"
                "schema = Schema([Variable('cont'), Variable('cat', 2)])\n"
                "c = Circuit.from_json(Circuit(nodes, 6, schema).to_json())\n"
                "assert c.validate() == []\n"
                "c.log_density(np.array([[0.1, 0.0], [-2.0, 1.0]]))\n"
                "c.sample(np.random.default_rng(0), 5)\n"
                "c.log_marginal([0.5, None])\n"
                "c.log_marginal([None, 1])\n"
                "loaded()\n"
                "c.log_marginal([(-1.0, 1.0), None])\n"
                "loaded()\n")
        assert run_fresh(code) == ["False", "False", "True"]

    def test_first_partition_scope_loads_it(self):
        code = ("import sys, numpy as np\n"
                "from softpc.independence import partition_scope\n"
                "from softpc.schema import Schema\n"
                "print('scipy.special' in sys.modules)\n"
                "m = np.random.default_rng(0).integers(0, 2, (60, 3)).astype(float)\n"
                "partition_scope(m, np.ones(60), [0, 1, 2], Schema.binary(3), 0.01)\n"
                "print('scipy.special' in sys.modules)\n")
        assert run_fresh(code) == ["False", "True"]

    def test_stand_ins_return_scipys_bits(self):
        code = ("import numpy as np\n"
                "from softpc import estimators, independence\n"
                "x = np.concatenate([np.linspace(-1000, 40, 1041), [0.0, -0.0, np.inf, -np.inf]])\n"
                "dof = np.repeat(np.arange(1, 10), 50).astype(float)\n"
                "stat = np.tile(np.geomspace(1e-3, 300, 50), 9)\n"
                "calls = [(estimators, '_log_ndtr', (x,)), (independence, '_chdtrc', (dof, stat))]\n"
                "runs = [[getattr(m, f)(*a).tobytes() for m, f, a in calls] for _ in range(2)]\n"
                "from scipy.special import chdtrc, log_ndtr\n"
                "want = [log_ndtr(x).tobytes(), chdtrc(dof, stat).tobytes()]\n"
                "print(runs[0] == want, runs[1] == want)\n"
                "print(estimators._log_ndtr is log_ndtr, independence._chdtrc is chdtrc)\n")
        assert run_fresh(code) == ["True"] * 4


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

    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (1.5, 0.25), (-40.0, 3.0)])
    def test_interval_above_the_mean_matches_the_upper_tail(self, mu, sigma):
        # cdf(hi) - cdf(lo) cancels where both are near 1: on N(0, 1) it reads
        # -inf for (10, 11) and -34.945 for (8, 9), not -53.2313 and -35.0136
        from scipy.stats import norm

        c = Circuit([LeafNode(0, Gaussian(mu, sigma))], 0, Schema.continuous(1))
        for a, b in [(0.5, 1.0), (2.0, 2.5), (8.0, 9.0), (10.0, 11.0), (20.0, 20.5),
                     (25.0, 30.0), (29.5, 30.0), (5.0, math.inf), (30.0, math.inf)]:
            upper, lower = norm.logsf([a, b])
            expected = upper + math.log1p(-math.exp(lower - upper))
            got = c.log_marginal([(mu + a * sigma, mu + b * sigma)])
            assert got == pytest.approx(expected, rel=1e-9, abs=0)

    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (0.25, 0.5), (-3.0, 2.0), (7.0, 1e3)])
    def test_narrow_interval_matches_integration(self, mu, sigma):
        # cdf(hi) - cdf(lo) cancels on a narrow interval: on N(0, 1) its log
        # was off by 4.3e-2 on (-1e-15, 1e-15) and by 7.3e-8 on (2, 2 + 1e-9).
        # quad integrates the density itself, which does not cancel.
        c = Circuit([LeafNode(0, Gaussian(mu, sigma))], 0, Schema.continuous(1))
        mirror = Circuit([LeafNode(0, Gaussian(-mu, sigma))], 0, Schema.continuous(1))
        for a, w in [(-1e-12, 2e-12), (-1e-15, 2e-15), (0.3, 1e-13), (2.0, 1e-9), (-5.0, 1e-7),
                     (30.0, 1e-6), (-36.0, 1e-5), (1.0, 1.9e-4), (1.0, 2.1e-4), (-0.5, 1e-3)]:
            lo, hi = mu + a * sigma, mu + (a + w) * sigma
            expected, _ = quad(normal_pdf, lo, hi, args=(mu, sigma), epsabs=0, epsrel=1e-13)
            got = c.log_marginal([(lo, hi)])
            assert got == pytest.approx(math.log(expected), rel=0, abs=1e-9), (a, w)
            assert got == mirror.log_marginal([(-hi, -lo)])

    def test_point_interval_has_no_mass(self):
        c = Circuit([LeafNode(0, Gaussian(0.0, 1e-3))], 0, Schema.continuous(1))
        for x in (0.0, 2.0, 1e300, -math.inf):
            assert c.log_marginal([(x, x)]) == -math.inf

    def test_far_bounds_and_points_give_their_limit_without_a_warning(self):
        # standardising a bound or point near the float limit overflows to inf
        c = Circuit([LeafNode(0, Gaussian(0.0, 1e-3))], 0, Schema.continuous(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert c.log_marginal([(1e308, 1e308)]) == -math.inf
            assert c.log_marginal([(-1e308, 1e308)]) == pytest.approx(0.0, rel=0, abs=1e-12)
            assert c.log_marginal([(0.0, 1e308)]) == pytest.approx(-math.log(2), rel=0, abs=1e-12)
            assert c.log_marginal([(-1e308, -1e300)]) == -math.inf
            assert (c.log_density(np.array([[1e160], [-1e160], [1e308]])) == -math.inf).all()

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    def test_interval_and_its_mirror_image_have_one_mass(self, sigma):
        c = Circuit([LeafNode(0, Gaussian(0.0, sigma))], 0, Schema.continuous(1))
        for a, b in [(0.0, 1.0), (0.5, 2.0), (8.0, 9.0), (10.0, 11.0), (30.0, 31.0),
                     (3.0, math.inf), (-1.0, 2.0)]:
            a, b = a * sigma, b * sigma
            assert c.log_marginal([(a, b)]) == c.log_marginal([(-b, -a)])
        mixture = fig1_circuit()  # N(-0.5, 1) and N(0.5, 1), weighted equally
        for a, b in [(1.0, 2.0), (9.0, 10.0), (12.0, 13.0)]:
            assert mixture.log_marginal([(a, b), None]) == pytest.approx(
                mixture.log_marginal([(-b, -a), None]), rel=1e-12)

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

    @pytest.mark.parametrize("query", [[None], [None, None, None]])
    def test_query_of_another_length_rejected(self, query):
        with pytest.raises(ValueError, match="query length does not match schema"):
            fig1_circuit().log_marginal(query)

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

    @pytest.mark.parametrize("value, accepted", [
        (1.0, True),
        (1, True),
        (FloatSubclass(1.0), True),
        (np.float64(1.0), True),
        (np.float32(1.0), True),
        (np.int64(1), True),
        (np.uint8(1), True),
        (Fraction(1), True),
        (True, False),
        (np.True_, False),
        ("1", False),
        (Decimal(1), False),
        (1 + 0j, False),
    ], ids=["float", "int", "float-subclass", "np-float64", "np-float32", "np-int64",
            "np-uint8", "fraction", "bool", "np-bool", "str", "decimal", "complex"])
    def test_each_number_type_as_a_level_a_point_and_a_bound(self, value, accepted):
        """The fast path for float and int leaves the rules as they were:
        bools and strings are not numbers, numpy scalars and Fractions are."""
        c = small_mixed_circuit()
        for query, plain in (([value, None, None], [1.0, None, None]),
                             ([None, value, None], [None, 1.0, None]),
                             ([None, (value, 2.0), None], [None, (1.0, 2.0), None])):
            if accepted:
                assert c.log_marginal(query) == c.log_marginal(plain)
            else:
                with pytest.raises(ValueError, match="non-numeric"):
                    c.log_marginal(query)


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
    that may be open on one side; about a third of the intervals start far
    above every leaf mean, in the upper tails."""
    query = []
    for v, var in enumerate(schema):
        u = rng.random()
        if u < 0.3:
            query.append(None)
        elif var.kind == "cat" or u < 0.6:
            query.append(int(row[v]) if var.kind == "cat" else float(row[v]))
        else:
            lo = float(rng.uniform(-2.0, 0.5) if rng.random() < 2 / 3 else rng.uniform(4.0, 12.0))
            hi = lo + float(rng.uniform(0.2, 2.0))
            query.append(((-math.inf, hi), (lo, math.inf), (lo, hi))[int(rng.integers(3))])
    return query


def categorical_mixture(arities, n_parts, rng) -> Circuit:
    """A uniform mixture of ``n_parts`` products of one leaf per variable.
    Each leaf breaks a stick at ``uniform(0.1, 0.9)`` draws, one per level
    but the last; a binary leaf is ``(p, 1 - p)``."""
    nodes, products = [], []
    for _ in range(n_parts):
        for v, arity in enumerate(arities):
            q = rng.uniform(0.1, 0.9, size=arity - 1)
            probs = np.append(q, 1.0) * np.cumprod(np.append(1.0, 1.0 - q))
            nodes.append(LeafNode(v, Multinomial(tuple(probs.tolist()))))
        nodes.append(ProductNode(tuple(range(len(nodes) - len(arities), len(nodes)))))
        products.append(len(nodes) - 1)
    nodes.append(SumNode(tuple(products), (1.0 / n_parts,) * n_parts))
    return Circuit(nodes, len(nodes) - 1, Schema.categorical(list(arities)))


def mixed_height_dag() -> Circuit:
    """Leaves 0 and 1 feed parents at heights 1, 2 and 3, and sums 4 and 7
    have children at different heights."""
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
    return Circuit(nodes, 7, Schema.binary(2))


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

    @pytest.mark.parametrize("bad, match", [(math.nan, "NaN"), (10**400, "out of range")],
                             ids=["nan", "int-past-float"])
    def test_nan_input_rejected(self, bad, match):
        c = fig1_circuit()
        with pytest.raises(ValueError, match=match):
            c.log_density([0.0, bad])
        with pytest.raises(ValueError, match=match + ".*variable 0"):
            c.log_marginal([bad, None])
        with pytest.raises(ValueError, match=match + ".*variable 1"):
            c.log_marginal([None, (bad, 1.0)])
        with pytest.raises(ValueError, match=match + ".*variable 1"):
            c.log_marginal([None, (0.0, bad)])

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
        c = mixed_height_dag()
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

    @pytest.mark.parametrize("n_rows, n_vars, n_parts", [
        pytest.param(20_000, 16, 40, id="20000"),
        pytest.param(100_000, 16, 40, id="100000"),
        pytest.param(100_000, 24, 27, id="100000-all-distinct"),
    ])
    def test_peak_memory_is_bounded_by_the_chunk(self, n_rows, n_vars, n_parts):
        """The node-by-row table covers one chunk of rows, never all of them,
        and is allocated once per call: a 20k-row batch on a 681-node circuit
        peaks under two chunk tables, where a full table would take
        n_nodes * n_rows * 8 bytes (109 MB), and a table per chunk plus each
        leaf call's own array reached about 2.1 chunk tables.  The input
        checks go a chunk at a time too: checking the whole batch at once
        took 6.3 chunk tables at 100k rows.  The row keys, their sort and
        the distinct rows' gather stay within the same bound, for a batch
        with 51k distinct rows of 100k and for one whose rows all differ:
        concatenating every chunk's codes and copying the distinct rows
        took 7.5 chunk tables."""
        rng = np.random.default_rng(5)
        c = categorical_mixture([2] * n_vars, n_parts, rng)
        assert c.n_nodes >= 500
        if n_vars == 16:
            rows = rng.integers(0, 2, size=(n_rows, n_vars)).astype(float)
        else:
            codes = rng.choice(1 << n_vars, size=n_rows, replace=False)
            rows = ((codes[:, None] >> np.arange(n_vars)) & 1).astype(float)
        tracemalloc.start()
        try:
            out = c.log_density(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < c.n_nodes * n_rows * 8 / 10
        table = c.n_nodes * c._compiled()[1] * 8
        assert peak < 1.75 * table + out.nbytes
        # checked a chunk at a time, still over the whole batch: a level out
        # of range in the last chunk fails, and the NaN error names the
        # lowest variable with a NaN in any chunk
        rows[-1, 5] = 2.0
        with pytest.raises(ValueError, match="categorical value out of range"):
            c.log_density(rows)
        rows[0, 9] = rows[-1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN value for variable 2$"):
            c.log_density(rows)


@pytest.fixture
def repeats(monkeypatch):
    """Each ``distinct`` call's distinct-row count in ``log_density``, or
    None where the evaluation that followed it kept the rows as given;
    empty where the batch was never keyed."""
    seen, pending = [], []
    inner, evaluate = circuit_module.distinct, Circuit._evaluate

    def spy(keys):
        result = inner(keys)
        seen.append(len(result[0]))
        pending.append(True)
        return result

    def evaluate_spy(self, columns, n, index=None):
        # the first evaluation after a call of distinct is log_density's own
        if pending and index is None:
            seen[-1] = None
        pending.clear()
        return evaluate(self, columns, n, index)

    monkeypatch.setattr(circuit_module, "distinct", spy)
    monkeypatch.setattr(Circuit, "_evaluate", evaluate_spy)
    return seen


def repeated_rows(pool, n, rng):
    """``n`` rows drawn from ``pool``, each pool row at least once."""
    picks = np.concatenate([np.arange(len(pool)), rng.integers(0, len(pool), n - len(pool))])
    return pool[rng.permutation(picks)]


def assert_direct(c, rows):
    """``log_density`` gives the bits of evaluating every row as given."""
    assert np.array_equal(c.log_density(rows), c._evaluate(rows.T, len(rows)))


class TestDistinctRows:
    """A categorical batch is evaluated once per distinct row; every row
    gets the bits that evaluating the batch as given gives it."""

    def test_distinct_rows_spanning_several_chunks(self, repeats, monkeypatch):
        rng = np.random.default_rng(0)
        c = random_binary_circuit(8, rng)
        assert c.n_nodes > circuit_module._COLLAPSE_COST
        monkeypatch.setattr(circuit_module, "_CHUNK_CELLS", 8 * c.n_nodes)
        assert c._compiled()[1] == 8
        pool = all_binary_rows(8)[rng.permutation(256)[:3 * 8 + 5]]
        rows = repeated_rows(pool, 20 * len(pool), rng)
        assert_direct(c, rows)
        assert repeats == [len(pool)]

    def test_all_rows_equal(self, repeats):
        c = categorical_mixture([2, 3, 2, 4], 6, np.random.default_rng(1))
        rows = np.tile([1.0, 2.0, 0.0, 3.0], (50, 1))
        assert_direct(c, rows)
        assert repeats == [1]  # one row, so the 1-D one-row table

    def test_all_rows_distinct(self, repeats):
        c = random_binary_circuit(7, np.random.default_rng(2))
        assert c.n_nodes > circuit_module._COLLAPSE_COST
        assert_direct(c, all_binary_rows(7)[::-1])
        assert repeats == [None]

    def test_negative_zero_is_level_zero(self, repeats):
        c = categorical_mixture([2, 3, 2], 8, np.random.default_rng(3))
        rows = repeated_rows(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]), 60,
                             np.random.default_rng(4))
        rows[::3][rows[::3] == 0.0] = -0.0
        assert np.signbit(rows).any()
        assert_direct(c, rows)
        assert repeats == [2]

    def test_one_row_and_no_rows(self, repeats):
        c = categorical_mixture([2, 3, 2], 8, np.random.default_rng(5))
        row = np.array([1.0, 2.0, 0.0])
        assert c.log_density(row) == c._evaluate(row[:, None], 1)[0]
        empty = np.empty((0, 3))
        got = c.log_density(empty)
        assert got.shape == (0,) and np.array_equal(got, c._evaluate(empty.T, 0))
        assert repeats == []

    def test_seventy_binary_variables_are_not_keyed(self, repeats):
        """Keys fold into one int64 up to ``2**62`` keys, 62 binary
        variables; a wider schema is evaluated as given."""
        assert key_places([2] * 62) is not None
        assert key_places([2] * 63) is None
        rng = np.random.default_rng(6)
        c = categorical_mixture([2] * 70, 3, rng)
        assert c.n_nodes > circuit_module._COLLAPSE_COST
        pool = rng.integers(0, 2, size=(12, 70)).astype(float)
        rows = repeated_rows(pool, 400, rng)
        assert_direct(c, rows)
        assert repeats == []

    def test_mixed_schema_evaluated_as_given(self, repeats):
        rng = np.random.default_rng(7)
        c = random_mixed_circuit(rng, n_vars=6)
        rows = repeated_rows(random_rows(c.schema, rng, 5), 100, rng)
        assert_direct(c, rows)
        assert repeats == []

    def test_circuit_of_at_most_the_collapse_cost_is_not_keyed(self, repeats):
        c = categorical_mixture([2] * 16, 1, np.random.default_rng(8))
        assert c.n_nodes <= circuit_module._COLLAPSE_COST
        rows = repeated_rows(all_binary_rows(16)[:4], 200, np.random.default_rng(9))
        assert_direct(c, rows)
        assert repeats == []

    def test_leaves_see_each_distinct_row_once(self, monkeypatch):
        """On a batch of 5m rows with m distinct ones, each variable's leaf
        call sees m rows in all."""
        rng = np.random.default_rng(10)
        c = categorical_mixture([2] * 12, 10, rng)
        variable = {id(dist): v for v, _, _, dist in c._compiled()[2]}
        m = 300
        pool = all_binary_rows(12)[rng.permutation(1 << 12)[:m]]
        rows = repeated_rows(pool, 5 * m, rng)
        seen = np.zeros(12, dtype=int)
        inner = circuit_module.leaf_log_pdf

        def spy(dist, x, out=None):
            seen[variable[id(dist)]] += len(x)
            return inner(dist, x, out=out)

        monkeypatch.setattr(circuit_module, "leaf_log_pdf", spy)
        out = c.log_density(rows)
        assert (seen == m).all()
        monkeypatch.setattr(circuit_module, "leaf_log_pdf", inner)
        assert np.array_equal(out, c._evaluate(rows.T, len(rows)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_permuted_batch_gives_the_permuted_output(self, data):
        c = _PERMUTED_CIRCUIT
        picks = data.draw(st.lists(st.integers(0, len(_PERMUTED_POOL) - 1), min_size=2, max_size=120))
        perm = np.array(data.draw(st.permutations(range(len(picks)))))
        rows = _PERMUTED_POOL[picks]
        out = c.log_density(rows)
        assert np.array_equal(c.log_density(rows[perm]), out[perm])
        assert np.array_equal(out, c._evaluate(rows.T, len(rows)))


_PERMUTED_CIRCUIT = categorical_mixture([3, 2, 4, 2, 5], 5, np.random.default_rng(11))
_PERMUTED_POOL = random_rows(_PERMUTED_CIRCUIT.schema, np.random.default_rng(12), 10)


def product_chain(n_vars: int, rng) -> Circuit:
    """Products of products: P(...P(P(L0, L1), L2)..., L{n-1})."""
    nodes = [LeafNode(0, Multinomial(tuple(rng.dirichlet(np.ones(2)))))]
    top = 0
    for v in range(1, n_vars):
        nodes.append(LeafNode(v, Multinomial(tuple(rng.dirichlet(np.ones(2))))))
        nodes.append(ProductNode((top, len(nodes) - 1)))
        top = len(nodes) - 1
    return Circuit(nodes, top, Schema.binary(n_vars))


def sum_chain(depth: int, rng) -> Circuit:
    """Sums of sums over a ternary and a continuous variable: each sum
    mixes the previous one with a new product of two leaves; the first
    sum mixes two such products and gives one of them weight 0."""

    def product():
        p = rng.dirichlet(np.ones(3))
        nodes.append(LeafNode(0, Multinomial(tuple((p / p.sum()).tolist()))))
        nodes.append(LeafNode(1, Gaussian(float(rng.normal()), float(rng.uniform(0.5, 2.0)))))
        nodes.append(ProductNode((len(nodes) - 2, len(nodes) - 1)))
        return len(nodes) - 1

    nodes = []
    first = product()
    nodes.append(SumNode((first, product()), (0.0, 1.0)))
    for _ in range(depth - 1):
        top = len(nodes) - 1
        w = float(rng.uniform(0.1, 0.9))
        nodes.append(SumNode((top, product()), (w, 1.0 - w)))
    return Circuit(nodes, len(nodes) - 1, Schema([Variable("cat", 3), Variable("cont")]))


def mixed_kinds_at_one_height() -> Circuit:
    """Sum 6 and products 8 and 9 are at height 1, product 7 and sum 10 at
    height 2: five (height, kind) groups, but sums 6 and 10 can share a
    step, so four steps."""
    nodes = [
        LeafNode(0, Multinomial((0.3, 0.7))),
        LeafNode(0, Multinomial((0.8, 0.2))),
        LeafNode(1, Multinomial((0.6, 0.4))),
        LeafNode(1, Multinomial((0.1, 0.9))),
        LeafNode(0, Multinomial((0.5, 0.5))),
        LeafNode(1, Multinomial((0.25, 0.75))),
        SumNode((0, 1), (0.4, 0.6)),
        ProductNode((6, 2)),
        ProductNode((4, 5)),
        ProductNode((1, 3)),
        SumNode((8, 9), (0.3, 0.7)),
        SumNode((7, 10), (0.5, 0.5)),
    ]
    return Circuit(nodes, 11, Schema.binary(2))


def wide_mixture(rng) -> Circuit:
    """A 3-way mixture of 9-leaf products over nine alternating ternary and
    continuous variables.  Variable 0 sits under a sum of 3 leaves in the
    first product and of 2 in the second, so one sum group pads a narrower
    sum."""
    schema = Schema([Variable("cat", 3) if v % 2 == 0 else Variable("cont") for v in range(9)])
    nodes, products = [], []

    def leaf(v):
        if schema[v].kind == "cat":
            nodes.append(LeafNode(v, Multinomial(tuple(rng.dirichlet(np.ones(3)).tolist()))))
        else:
            nodes.append(LeafNode(v, Gaussian(float(rng.normal()), float(rng.uniform(0.5, 2.0)))))
        return len(nodes) - 1

    for width in (3, 2, 1):
        children = [leaf(0) for _ in range(width)]
        if width > 1:
            nodes.append(SumNode(tuple(children), tuple(rng.dirichlet(np.ones(width)).tolist())))
            children = [len(nodes) - 1]
        children += [leaf(v) for v in range(1, 9)]
        nodes.append(ProductNode(tuple(children)))
        products.append(len(nodes) - 1)
    nodes.append(SumNode(tuple(products), tuple(rng.dirichlet(np.ones(3)).tolist())))
    return Circuit(nodes, len(nodes) - 1, schema)


def reference_columns(query):
    """A ``log_marginal`` query as ``reference_height_grouped`` columns."""
    return [e if e is None or isinstance(e, tuple) else np.array([e], dtype=float)
            for e in query]


def height_kind_groups(c: Circuit) -> int:
    height, keys = [0] * c.n_nodes, set()
    for i, node in enumerate(c.nodes):
        if not isinstance(node, LeafNode):
            height[i] = 1 + max(height[ch] for ch in node.children)
            keys.add((height[i], isinstance(node, SumNode)))
    return len(keys)


def pinned_circuits():
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        yield random_binary_circuit(7, rng)
        yield random_mixed_circuit(rng, n_vars=6, max_depth=4)
    rng = np.random.default_rng(7)
    yield mixed_height_dag()
    yield mixed_kinds_at_one_height()
    yield product_chain(6, rng)
    yield sum_chain(5, rng)
    yield small_mixed_circuit()


class TestStepScheduleMatchesHeightGroups:
    """Grouping inner nodes by alternating product/sum steps computes every
    node exactly as grouping them by height and kind did."""

    @pytest.mark.parametrize("index", range(17))
    def test_log_density_and_log_marginal_bit_identical(self, index):
        c = list(pinned_circuits())[index]
        assert c.validate() == []
        rng = np.random.default_rng(index)
        rows = random_rows(c.schema, rng, 40)
        assert np.array_equal(c.log_density(rows), reference_height_grouped(c, rows.T, 40))
        queries = [random_query(c.schema, row, rng) for row in rows]
        queries.append([None] * len(c.schema))
        for query in queries:
            got = c.log_marginal(query)
            assert np.array_equal(got, reference_height_grouped(c, reference_columns(query), 1)[0])

    @pytest.mark.parametrize("seed", range(3))
    def test_one_row_last_chunk_of_a_batch(self, seed, monkeypatch):
        """A batch whose last chunk holds one row runs that chunk on the 1-D
        table, after chunks of several rows, and matches the reference."""
        rng = np.random.default_rng(seed)
        c = wide_mixture(rng)
        assert c.validate() == []
        monkeypatch.setattr(circuit_module, "_CHUNK_CELLS", 8 * c.n_nodes)
        assert c._compiled()[1] == 8
        assert max(len(n.children) for n in c.nodes if isinstance(n, SumNode)) >= 3
        assert max(len(n.children) for n in c.nodes if isinstance(n, ProductNode)) >= 9
        n = 3 * 8 + 1
        rows = random_rows(c.schema, rng, n)
        assert np.array_equal(c.log_density(rows), reference_height_grouped(c, rows.T, n))
        columns = list(rows.T)
        columns[2], columns[3] = None, (-0.5, 1.0)
        assert np.array_equal(c._evaluate(columns, n), reference_height_grouped(c, columns, n))

    def test_every_child_slot_lies_in_an_earlier_group(self):
        for c in pinned_circuits():
            _, _, leaves, groups, _ = c._compiled()
            assert groups[0][0] == leaves[-1][2]
            for (lo, hi, children, log_weights), following in zip(groups, groups[1:] + [None]):
                if log_weights is None:
                    indptr, slots, ones = children
                    # the CSR kernel takes both index arrays in one dtype
                    assert indptr.dtype == slots.dtype == np.intp
                    assert len(indptr) == hi - lo + 1
                    assert indptr[0] == 0 and indptr[-1] == len(slots) == len(ones)
                    assert (np.diff(indptr) >= 1).all()
                    assert (ones == 1.0).all()
                else:
                    slots = children
                assert slots.max() < lo
                assert following is None or following[0] == hi
            assert groups[-1][1] == c.n_nodes

    def test_fewer_groups_than_height_and_kind(self):
        for c in pinned_circuits():
            assert len(c._compiled()[3]) <= height_kind_groups(c)
        c = mixed_kinds_at_one_height()
        assert height_kind_groups(c) == 5
        assert len(c._compiled()[3]) == 4


class TestCategoricalCodesChecked:
    """A categorical value must be an integer level of its variable."""

    @pytest.mark.parametrize("bad", [-1.0, 3.0, 0.5, 2.5, math.inf,
                                     pytest.param(10**400, id="int-past-float")])
    def test_one_row_rejected(self, bad):
        c = random_mixed_circuit(np.random.default_rng(2), n_vars=6)
        row = random_rows(c.schema, np.random.default_rng(3), 1)[0].tolist()
        row[0] = bad
        with pytest.raises(ValueError, match="out of range"):
            c.log_density(row)
        query = [None] * len(c.schema)
        query[0] = bad
        with pytest.raises(ValueError, match="out of range"):
            c.log_marginal(query)

    @pytest.mark.parametrize("bad", [-1.0, 3.0, 0.5])
    def test_bad_code_in_the_last_chunk_of_a_batch(self, bad, monkeypatch):
        rng = np.random.default_rng(11)
        c = random_mixed_circuit(rng, n_vars=6)
        monkeypatch.setattr(circuit_module, "_CHUNK_CELLS", 16 * c.n_nodes)
        assert c._compiled()[1] == 16
        rows = random_rows(c.schema, rng, 3 * 16 + 5)
        c.log_density(rows)
        rows[-1, 0] = bad
        with pytest.raises(ValueError, match="out of range"):
            c.log_density(rows)

    def test_integer_valued_floats_and_numpy_integers_accepted(self):
        c = small_mixed_circuit()
        assert c.log_marginal([2.0, None, np.int64(1)]) == c.log_marginal([2, None, 1])


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
        *_, (_, _, _, sums, _, _) = c._compiled()
        assert [cumulative.shape for _, cumulative, _, _ in sums] == [(4, 3)]
        n = 50_000
        rows = c.sample(rng, n)
        for v, w in enumerate(weights):
            observed = np.bincount(rows[:, v].astype(int), minlength=len(w))
            assert chisquare(observed, n * np.array(w)).pvalue > 0.001


def _mixture_of_products(schema, leaf_dists, weights):
    """A sum over products of one leaf per variable: ``leaf_dists[k][v]``
    is product k's leaf for variable v."""
    nodes, products = [], []
    for dists in leaf_dists:
        first = len(nodes)
        nodes += [LeafNode(v, d) for v, d in enumerate(dists)]
        nodes.append(ProductNode(tuple(range(first, len(nodes)))))
        products.append(len(nodes) - 1)
    nodes.append(SumNode(tuple(products), weights))
    return Circuit(nodes, len(nodes) - 1, schema)


def _sparse_levels(arity, mass):
    """Multinomial of ``arity`` levels with the probabilities ``mass`` by level, 0 elsewhere."""
    return Multinomial(tuple(mass.get(level, 0.0) for level in range(arity)))


def leaf_root_categorical():
    return Circuit([LeafNode(0, Multinomial((0.2, 0.5, 0.3)))], 0, Schema.categorical([3]))


def leaf_root_gaussian():
    return Circuit([LeafNode(0, Gaussian(0.3, 1.2))], 0, Schema.continuous(1))


def product_root():
    schema = Schema([Variable("cat", 3), Variable("cont"), Variable("cat", 2)])
    nodes = [LeafNode(0, Multinomial((0.1, 0.6, 0.3))), LeafNode(1, Gaussian(0.4, 1.0)),
             LeafNode(2, Multinomial((0.7, 0.3))), ProductNode((0, 1, 2))]
    return Circuit(nodes, 3, schema)


def products_of_products_of_products():
    """A sum over two chains of three nested products; each chain holds a
    mixture at its bottom and one at its top, so draws pass through every
    level of the chain."""
    schema = Schema([Variable("cat", 2), Variable("cont"), Variable("cat", 3), Variable("cont")])
    nodes = []

    def add(node):
        nodes.append(node)
        return len(nodes) - 1

    chains = []
    for shift in (0.0, 1.5):
        a = add(LeafNode(0, Multinomial((0.3, 0.7))))
        b = add(LeafNode(0, Multinomial((0.9, 0.1))))
        inner = add(ProductNode((add(SumNode((a, b), (0.5, 0.5))),
                                 add(LeafNode(1, Gaussian(shift - 1.0, 1.0))))))
        middle = add(ProductNode((inner, add(LeafNode(2, Multinomial((0.1, 0.2 + shift / 3,
                                                                         0.7 - shift / 3)))))))
        top = add(SumNode((add(LeafNode(3, Gaussian(2.0 - shift, 0.5))),
                           add(LeafNode(3, Gaussian(-2.0, 0.5)))), (0.3, 0.7)))
        chains.append(add(ProductNode((middle, top))))
    add(SumNode(tuple(chains), (0.35, 0.65)))
    return Circuit(nodes, len(nodes) - 1, schema)


def alternating_kinds():
    """Kinds cat/cont/cat/cont, so each block's variables are not adjacent."""
    schema = Schema([Variable("cat", 2), Variable("cont"), Variable("cat", 2), Variable("cont")])
    return _mixture_of_products(schema, [
        [Multinomial((0.2, 0.8)), Gaussian(-1.0, 0.7), Multinomial((0.6, 0.4)), Gaussian(1.0, 1.0)],
        [Multinomial((0.9, 0.1)), Gaussian(1.5, 0.5), Multinomial((0.3, 0.7)), Gaussian(-0.5, 2.0)],
    ], (0.45, 0.55))


def arities_1000_2_3():
    """Arities 1000, 2 and 3, listed out of arity order; the wide leaves
    put their mass on a few levels, the last one among them."""
    schema = Schema.categorical([1000, 2, 3])
    return _mixture_of_products(schema, [
        [_sparse_levels(1000, {0: 0.5, 500: 0.2, 999: 0.3}), Multinomial((0.2, 0.8)),
         Multinomial((0.5, 0.0, 0.5))],
        [_sparse_levels(1000, {1: 0.6, 998: 0.4}), Multinomial((0.7, 0.3)),
         Multinomial((0.1, 0.6, 0.3))],
    ], (0.4, 0.6))


SAMPLER_SHAPES = {
    "leaf-root-categorical": leaf_root_categorical,
    "leaf-root-gaussian": leaf_root_gaussian,
    "product-root": product_root,
    "products-of-products-of-products": products_of_products_of_products,
    "alternating-kinds": alternating_kinds,
    "arities-1000-2-3": arities_1000_2_3,
}


class TestSamplerShapes:
    """Each shape of the sampler's plan (leaf or product roots, product
    chains folded into frontiers, leaf blocks by kind and arity) against
    the node-by-node ``reference_sample``."""

    @pytest.mark.parametrize("name", SAMPLER_SHAPES)
    def test_joint_codes_share_a_distribution(self, name):
        c = SAMPLER_SHAPES[name]()
        assert c.validate() == []
        n = 100_000  # more keys than one leaf-pass chunk holds
        new = joint_codes(c, c.sample(np.random.default_rng(1), n))
        old = joint_codes(c, reference_sample(c, np.random.default_rng(2), n))
        assert two_sample_pvalue(new, old) > 0.001

    @pytest.mark.parametrize("name", SAMPLER_SHAPES)
    @pytest.mark.parametrize("n", [0, 1])
    def test_zero_and_one_rows(self, name, n):
        c = SAMPLER_SHAPES[name]()
        rows = c.sample(np.random.default_rng(0), n)
        assert rows.shape == (n, len(c.schema))
        assert np.isfinite(rows).all()
        for v, var in enumerate(c.schema):
            if var.kind == "cat":
                assert ((rows[:, v] >= 0) & (rows[:, v] < var.arity)).all()
                assert (rows[:, v] == np.rint(rows[:, v])).all()

    @pytest.mark.parametrize("name", SAMPLER_SHAPES)
    def test_frontiers_hold_sums_and_leaves_only(self, name):
        c = SAMPLER_SHAPES[name]()
        _, _, leaves, groups, (indptr, indices, *_) = c._compiled()
        kinds = ["leaf"] * leaves[-1][2]
        for lo, hi, _, log_weights in groups:
            kinds += ["product" if log_weights is None else "sum"] * (hi - lo)
        for slot, kind in enumerate(kinds):
            reach = indices[indptr[slot]:indptr[slot + 1]].tolist()
            if kind == "product":
                assert reach and all(kinds[s] != "product" for s in reach)
            else:
                assert reach == [slot]

    def test_product_chains_fold_into_their_tops(self):
        c = products_of_products_of_products()
        _, _, leaves, groups, (indptr, indices, *_) = c._compiled()
        sizes = np.diff(indptr)
        products = [s for lo, hi, _, log_weights in groups if log_weights is None
                    for s in range(lo, hi)]
        # per chain: (mixture, Gaussian), then a ternary leaf, then the top mixture
        assert sorted(sizes[products].tolist()) == [2, 2, 3, 3, 4, 4]
        assert sizes[c._compiled()[0]] == 1  # the root is a sum
        root_slot, _, _, _, (indptr, indices, *_) = product_root()._compiled()
        assert sorted(indices[indptr[root_slot]:indptr[root_slot + 1]].tolist()) == [0, 1, 2]

    def test_one_block_per_kind_and_arity(self):
        c = arities_1000_2_3()
        *_, (_, _, _, _, blocks, leaf_var) = c._compiled()
        assert [table.shape for _, table in blocks] == [(1, 2), (2, 2), (999, 2)]
        assert leaf_var.tolist() == [1, 1, 2, 2, 0, 0]
        c = alternating_kinds()
        *_, (_, _, _, _, blocks, leaf_var) = c._compiled()
        assert [type(table) for _, table in blocks] == [np.ndarray, Gaussian]
        assert blocks[1][1].mu.shape == blocks[1][1].sigma.shape == (4,)
        assert leaf_var.tolist() == [0, 0, 2, 2, 1, 1, 3, 3]

    @pytest.mark.parametrize("c", [*pinned_circuits(), *(f() for f in SAMPLER_SHAPES.values())],
                             ids=[*(f"pinned{i}" for i in range(17)), *SAMPLER_SHAPES])
    def test_each_variable_reads_rows_of_its_leaf_block(self, c):
        """Each leaf block is stacked once: a variable's evaluation table is
        a view of its rows of the block's one table, the one the sampler
        reads for Gaussians and whose probs it reads for categoricals."""
        _, _, leaves, _, (_, _, _, _, blocks, _) = c._compiled()
        bounds = [lo for lo, _ in blocks] + [leaves[-1][2]]
        for (first, table), end in zip(blocks, bounds[1:]):
            rows = [(lo - first, hi - first, stacked)
                    for _, lo, hi, stacked in leaves if first <= lo < end]
            for lo, hi, stacked in rows:
                if isinstance(table, Gaussian):
                    assert stacked.mu.shape == stacked.sigma.shape == (hi - lo, 1)
                    assert np.shares_memory(stacked.mu, table.mu[lo:hi])
                    assert np.shares_memory(stacked.sigma, table.sigma[lo:hi])
                    assert np.array_equal(stacked.mu[:, 0], table.mu[lo:hi])
                else:
                    block = stacked.log_probs.base
                    assert block is not None and block.shape == (end - first, len(table) + 1)
                    assert np.shares_memory(stacked.log_probs, block[lo:hi])
                    assert np.array_equal(stacked.log_probs, block[lo:hi])
                    assert block is rows[0][2].log_probs.base


class TestSampleDeterminism:
    # sha256 of ``sample(default_rng(3), 2000)`` on each of ``pinned_circuits()``
    PINNED_SAMPLES = [
        "7781d8692791b8fb9e2056e6ff56a0ddc12df7472b8b8e9edc238d7e8ebc3aa9",
        "4c47ff114aee9fa9be287744070739d1d05448e8d2cdd95dfbaf3d46e2ead5e6",
        "258389bc498ff8469231fd5d258dfc6ebbf6a547845fa30f093b85746b73ca43",
        "7e449bbdb681bb37824f65e3352070de2fbcb553e8edfe078bcdf4d60a165bc4",
        "24c1d18cd7b40abbfc5e560f8ded8da523f8966c3c9584988f67ddfbeb1b491a",
        "baf36f9ec45c2281f68ced38a75f7fe7af7c3f7e43bb11cc54d94426434d96f6",
        "db9a7259052eb56b527f1e012d47c7a556b46af3d933dcf47767f958f4563280",
        "ae810e62e1eecd7fcac65c23a21827bcf6615768bcabf9dd4562a8f6e93652d2",
        "895d692da4360b33276ce51e970643ba40cb8ceb0db2864d7c0008659ccc56fb",
        "c5485d0c2bf5bd57684738b379a93288831cbc7aeef9b6d1075b6b00c489c781",
        "190c9a827c538362552fbe3dc7827369e2964a52af34a521d01a02db30227267",
        "bd605537d975c66ec3ed584bae46a582fb1898e31af9f647d5e43c18adcded61",
        "bd296367aea9e14ca6d1691434eccc1e0c46333aa56b8c8e7816f000c4f969bc",
        "f61ee3d2a044f8ed08fd1b5ede67c13d0860b9b6ecac7944a8d483af7c5dcf0c",
        "0ec2ea0ef857f66e784ca58cd18d7ffff786522a116749fec416165b60126e54",
        "961c19044e3da7b26304e903122214a063db4c51014390883bff7c545d1fa99c",
        "1ba601be9695d129e1b3cdfe902e22fd791cdc05154b0723639a8ae066c4fc2e",
    ]

    @pytest.mark.parametrize("index", range(17))
    def test_pinned_sample_bytes(self, index):
        """The draw order and the compiled layout it follows, pinned."""
        c = list(pinned_circuits())[index]
        got = hashlib.sha256(c.sample(np.random.default_rng(3), 2000).tobytes()).hexdigest()
        assert got == self.PINNED_SAMPLES[index]

    def test_pinned_sample_bytes_of_a_large_call(self):
        c = list(pinned_circuits())[1]
        got = hashlib.sha256(c.sample(np.random.default_rng(3), 20_000).tobytes()).hexdigest()
        assert got == "7511cc318972626f7c4a4770ba7a8937cb4f4c15fc1a371205f29c5810e50c37"

    def test_leaf_chunk_size_does_not_change_the_draws(self, monkeypatch):
        circuits = [random_mixed_circuit(np.random.default_rng(s), n_vars=6) for s in range(3)]
        circuits += [arities_1000_2_3(), alternating_kinds()]
        before = [c.sample(np.random.default_rng(7), 3_000).tobytes() for c in circuits]
        monkeypatch.setattr(circuit_module, "_SAMPLE_CELLS", 7)
        after = [c.sample(np.random.default_rng(7), 3_000).tobytes() for c in circuits]
        assert before == after

    def test_same_bytes_under_any_hash_seed(self, tmp_path):
        """No set or dict order reaches the block layout or the draws."""
        c = random_mixed_circuit(np.random.default_rng(5), n_vars=8)
        path = tmp_path / "circuit.json"
        path.write_text(c.to_json())
        code = ("import hashlib, sys\n"
                "import numpy as np\n"
                "from softpc.circuit import Circuit\n"
                "c = Circuit.from_json(open(sys.argv[1]).read())\n"
                "print(hashlib.sha256(c.sample(np.random.default_rng(3), 2000).tobytes()).hexdigest())\n")
        digests = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.path.dirname(os.path.dirname(softpc.__file__)))
            out = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                                 text=True, env=env, check=True).stdout
            digests.append(out.strip())
        here = hashlib.sha256(c.sample(np.random.default_rng(3), 2000).tobytes()).hexdigest()
        assert digests == [here, here]


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

    def test_round_trip_hashes_equal(self):
        c = fig1_circuit()
        again = Circuit.from_json(c.to_json())
        assert again is not c and hash(again) == hash(c)
        assert len({c, again}) == 1

    def test_round_trip_preserves_full_precision(self, rng):
        for _ in range(10):
            c = random_binary_circuit(5, rng)
            again = Circuit.from_json(c.to_json())
            assert again.nodes == c.nodes

    def test_truncated_payload_is_parse_error(self):
        text = fig1_circuit().to_json()
        with pytest.raises(ModelParseError):
            Circuit.from_json(text[: len(text) // 2])

    def test_deeply_nested_document_is_parse_error(self):
        # json.loads raises RecursionError past the interpreter's recursion limit
        with pytest.raises(ModelParseError, match="recursion"):
            Circuit.from_json("[" * 100000 + "]" * 100000)

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

    def test_integer_numbers_load_as_floats(self):
        c = HAND_BUILT["int-weights"]()
        again = Circuit.from_json(c.to_json())
        assert again == _fig1_with(6, SumNode((4, 5), (1.0, 0.0)))
        numbers = again.nodes[6].weights + (again.nodes[0].dist.mu, again.nodes[0].dist.sigma)
        assert {type(x) for x in numbers} == {float}
        leaf = Circuit.from_json(HAND_BUILT["int-parameters"]().to_json()).nodes[0]
        assert type(leaf.dist.mu) is type(leaf.dist.sigma) is float
        text = small_mixed_circuit().to_json().replace('"probs":[0.9,0.1]', '"probs":[1,0]')
        assert Circuit.from_json(text).nodes[2].dist.probs == (1.0, 0.0)
        assert type(Circuit.from_json(text).nodes[2].dist.probs[0]) is float

    def test_huge_integer_number_is_parse_error(self):
        text = fig1_circuit().to_json().replace("[0.5,0.5]", f"[{10**400},0.5]")
        with pytest.raises(ModelParseError, match="too large"):
            Circuit.from_json(text)

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


def _hand_built(nodes, names=(None, None)):
    """``nodes`` over fig1's continuous schema, with variable names ``names``."""
    return Circuit(nodes, len(nodes) - 1, Schema(Variable("cont", name=n) for n in names))


# Hand-built circuits whose values repr would not write as json.dumps does,
# or that are easy to get wrong in a hand-written writer.
HAND_BUILT = {
    "nan-weight": lambda: _fig1_with(6, SumNode((4, 5), (math.nan, 0.5))),
    "infinite-parameters": lambda: _fig1_with(1, LeafNode(1, Gaussian(math.inf, -math.inf))),
    "int-weights": lambda: _fig1_with(6, SumNode((4, 5), (1, 0))),
    "int-parameters": lambda: _fig1_with(0, LeafNode(0, Gaussian(-1, 2))),
    "huge-int-weight": lambda: _fig1_with(6, SumNode((4, 5), (10**400, 0.5))),
    "numpy-floats": lambda: _fig1_with(6, SumNode((4, 5), (np.float64(0.25), np.float64(0.75)))),
    "numpy-float-parameters": lambda: _fig1_with(
        0, LeafNode(0, Gaussian(np.float64(-0.5), np.float64(1e-300)))),
    "bool-variable": lambda: _fig1_with(1, LeafNode(True, Gaussian(-2.0, 0.2))),
    "non-ascii-and-quoted-names": lambda: _hand_built(
        fig1_circuit().nodes, ("größe \u2603 \U0001f600", 'say "hi" \\ \t\n')),
    "tiny-and-huge-floats": lambda: _fig1_with(
        3, LeafNode(1, Gaussian(-1.7976931348623157e308, 5e-324))),
}


class TestWriterMatchesReference:
    """``to_json`` is byte-identical to ``json.dumps`` of the circuit's document."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        for c in (random_binary_circuit(6, rng), random_mixed_circuit(rng)):
            assert c.to_json() == reference_to_json(c)

    @pytest.mark.parametrize("kind", ["binary", "mixed"])
    @pytest.mark.parametrize("clusterer", ["em", "kmeans"])
    @pytest.mark.parametrize("learn", [learn_spn, soft_learn])
    def test_learned_circuits(self, learn, clusterer, kind):
        matrix, schema = pinned_data(kind)
        circuit, _ = learn(WeightedDataset(matrix, None, schema), Hyperparams(clusterer=clusterer))
        assert circuit.to_json() == reference_to_json(circuit)

    def test_named_schema(self):
        c = small_mixed_circuit()
        assert c.to_json() == reference_to_json(c)

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_circuits(self, name):
        c = HAND_BUILT[name]()
        assert c.to_json() == reference_to_json(c)

    def test_non_finite_values_written_as_json_dumps_writes_them(self):
        text = HAND_BUILT["infinite-parameters"]().to_json()
        assert '"mu":Infinity,"sigma":-Infinity' in text
        assert '"weights":[NaN,0.5]' in HAND_BUILT["nan-weight"]().to_json()

    def test_numpy_integer_index_rejected_as_json_dumps_rejects_it(self):
        c = _fig1_with(4, ProductNode((np.int64(0), 1)))
        with pytest.raises(TypeError, match="int64"):
            reference_to_json(c)
        with pytest.raises(TypeError, match="int64"):
            c.to_json()


class TestValidateMatchesReference:
    """``validate`` returns the frozenset-scope reference's list, in order."""

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_circuits(self, name):
        c = MALFORMED[name]()
        assert c.validate() == reference_validate(c)
        assert c.validate() != []

    def test_valid_circuits(self, rng):
        for c in [random_binary_circuit(6, rng) for _ in range(5)] + [small_mixed_circuit()]:
            assert c.validate() == reference_validate(c) == []

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(mutated_documents())
    def test_mutated_documents(self, case):
        try:
            circuit = Circuit._parse(case[0])
        except ModelParseError:
            return
        assert circuit.validate() == reference_validate(circuit)


class TestCounts:
    def test_node_and_edge_counts(self):
        c = fig1_circuit()
        assert c.n_nodes == 7
        assert c.n_edges == 6
