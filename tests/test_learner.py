import contextlib
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from softpc import independence, learner, toy
from softpc.circuit import Circuit, LeafNode, ProductNode, SumNode
from softpc.clustering import em_factorized
from softpc.estimators import CONT_MAX_ABS, EPSILON_W, MAX_TOTAL_WEIGHT, Multinomial
from softpc.learner import (
    CLUSTERERS,
    Hyperparams,
    WeightedDataset,
    factorized_circuit,
    learn_spn,
    soft_learn,
)
from softpc.schema import Schema, Variable

from conftest import (
    all_binary_rows,
    pinned_data,
    reference_assemble,
    singleton_split_membership,
    split_circuit,
    step_counts,
)


def two_block_binary(rng, n):
    """Two latent-coupled variable pairs: (0,1) dependent, (2,3) dependent."""
    a = rng.integers(0, 2, size=n)
    b = rng.integers(0, 2, size=n)
    noise = lambda z: (z + (rng.random(n) < 0.05)) % 2  # noqa: E731
    return np.column_stack([a, noise(a), b, noise(b)]).astype(float)


class TestHyperparams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Hyperparams(p_threshold=0.0)
        with pytest.raises(ValueError):
            Hyperparams(alpha=-1.0)
        with pytest.raises(ValueError):
            Hyperparams(min_instances=1.0)
        with pytest.raises(ValueError):
            Hyperparams(clusterer="agglomerative")

    @pytest.mark.parametrize(
        "field, value",
        [("n_clusters", 0), ("n_clusters", -1), ("max_cluster_iters", 0),
         ("beta", -0.5), ("beta", np.inf), ("beta", np.nan), ("alpha", np.nan),
         ("alpha", np.inf), ("min_instances", np.nan), ("n_clusters", 2.5),
         ("n_clusters", True), ("max_cluster_iters", 10.0), ("max_cluster_iters", True),
         ("seed", 1.5), ("seed", False), ("seed", -1)],
    )
    def test_rejects_non_finite_and_out_of_range_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            Hyperparams(**{field: value})

    def test_accepts_edge_clustering_values(self):
        hp = Hyperparams(n_clusters=1, max_cluster_iters=1, beta=0.0)
        assert (hp.n_clusters, hp.max_cluster_iters, hp.beta) == (1, 1, 0.0)

    def test_accepts_numpy_integers(self):
        hp = Hyperparams(n_clusters=np.int64(3), max_cluster_iters=np.int32(5), seed=np.uint8(7))
        assert (hp.n_clusters, hp.max_cluster_iters, hp.seed) == (3, 5, 7)


class TestWeightedDataset:
    def test_defaults(self, rng):
        data = WeightedDataset(rng.normal(size=(5, 2)), None, Schema.continuous(2))
        assert data.row_weights.tolist() == [1.0] * 5

    def test_rejects_empty_and_mismatched(self, rng):
        with pytest.raises(ValueError):
            WeightedDataset(np.empty((0, 2)), None, Schema.continuous(2))
        with pytest.raises(ValueError):
            WeightedDataset(rng.normal(size=(5, 3)), None, Schema.continuous(2))
        with pytest.raises(ValueError):
            WeightedDataset(rng.normal(size=(5, 2)), np.zeros(5), Schema.continuous(2))

    def test_rejects_non_finite_values(self, rng):
        matrix = rng.normal(size=(5, 2))
        for bad in (np.nan, np.inf):
            matrix[2, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                WeightedDataset(matrix, None, Schema.continuous(2))

    def test_rejects_categorical_values_outside_arity(self):
        for bad in (2.0, -1.0, 0.5):
            with pytest.raises(ValueError, match="arity"):
                WeightedDataset(np.array([[0.0], [1.0], [bad]]), None, Schema.binary(1))

    @pytest.mark.parametrize("kind", ["binary", "mixed"])
    def test_signed_zero_learns_as_zero(self, kind):
        rng = np.random.default_rng(3)
        z = rng.integers(0, 4, size=1000)
        if kind == "binary":
            # soft-binary-shaped rows: 16 binary variables whose rows repeat
            probs = np.clip(rng.beta(0.5, 0.5, size=(4, 16)), 0.02, 0.98)
            rows = (rng.random((1000, 16)) < probs[z]).astype(float)
            schema = Schema.binary(16)
        else:
            # continuous columns rounded to integers, so many are 0.0
            cont = np.round(rng.normal(z[:, None], 1.0, size=(1000, 4)))
            cat = (rng.random((1000, 4)) < (z[:, None] + 1) / 5).astype(float)
            rows = np.hstack([cont, cat])
            schema = Schema([Variable("cont")] * 4 + [Variable("cat", 2)] * 4)
        signed = rows.copy()
        zeros = np.flatnonzero(signed == 0.0)
        signed.flat[zeros[::2]] = -0.0
        assert np.array_equal(rows, signed) and np.signbit(signed).any()
        kept = signed.copy()
        hp = Hyperparams(p_threshold=0.01, alpha=0.01, clusterer="kmeans", seed=3)
        want, _ = soft_learn(WeightedDataset(rows, None, schema), hp)
        got, _ = soft_learn(WeightedDataset(signed, None, schema), hp)
        assert got.to_json() == want.to_json()
        # the caller's array is not rewritten
        assert np.array_equal(np.signbit(signed), np.signbit(kept))

    def test_rejects_row_weights_below_epsilon(self, rng):
        with pytest.raises(ValueError, match="row weights"):
            WeightedDataset(rng.normal(size=(5, 2)), np.full(5, 1e-7), Schema.continuous(2))

    def test_rejects_row_weights_of_another_length(self, rng):
        with pytest.raises(ValueError, match=r"shape \(5,\)"):
            WeightedDataset(rng.normal(size=(5, 2)), np.ones(4), Schema.continuous(2))


class TestLearnSpn:
    def test_single_variable_gives_one_leaf(self):
        data = WeightedDataset(
            np.array([[0.0], [0.0], [1.0], [1.0]]), None, Schema.binary(1)
        )
        circuit, _ = learn_spn(data, Hyperparams(alpha=0.0))
        assert len(circuit.nodes) == 1
        assert circuit.nodes[0] == LeafNode(0, Multinomial((0.5, 0.5)))

    def test_independent_coins_give_product_of_leaves(self, rng):
        matrix = rng.integers(0, 2, size=(5000, 2)).astype(float)
        data = WeightedDataset(matrix, None, Schema.binary(2))
        circuit, _ = learn_spn(data, Hyperparams())
        assert isinstance(circuit.nodes[circuit.root], ProductNode)
        assert all(isinstance(n, LeafNode) for n in circuit.nodes[: circuit.root])
        assert circuit.validate() == []

    def test_dependent_pair_gives_sum_root(self, rng):
        matrix = toy.generate(1000, rng)
        data = WeightedDataset(matrix, None, Schema.continuous(2))
        circuit, _ = learn_spn(data, Hyperparams(p_threshold=0.001))
        assert isinstance(circuit.nodes[circuit.root], SumNode)
        assert circuit.validate() == []

    def test_small_mass_factorizes(self, rng):
        matrix = rng.integers(0, 2, size=(10, 3)).astype(float)
        data = WeightedDataset(matrix, None, Schema.binary(3))
        circuit, trace = learn_spn(data, Hyperparams(min_instances=50))
        assert isinstance(circuit.nodes[circuit.root], ProductNode)
        assert trace.steps[0].step_kind == "factorize"

    def test_learned_circuits_are_valid_and_normalized(self, rng):
        rows = all_binary_rows(4)
        for _ in range(5):
            matrix = two_block_binary(rng, 300)
            data = WeightedDataset(matrix, None, Schema.binary(4))
            circuit, _ = learn_spn(data, Hyperparams(min_instances=20))
            assert circuit.validate() == []
            total = np.exp(circuit.log_density(rows)).sum()
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_serialization(self, rng):
        matrix = two_block_binary(rng, 400)
        data = WeightedDataset(matrix, None, Schema.binary(4))
        hp = Hyperparams(min_instances=20, seed=3)
        a, _ = learn_spn(data, hp)
        b, _ = learn_spn(data, hp)
        assert a.to_json() == b.to_json()


class TestSoftLearn:
    def test_valid_and_normalized(self, rng):
        rows = all_binary_rows(4)
        for clusterer in ("em", "kmeans"):
            matrix = two_block_binary(rng, 300)
            data = WeightedDataset(matrix, None, Schema.binary(4))
            circuit, _ = soft_learn(
                data, Hyperparams(min_instances=20, clusterer=clusterer)
            )
            assert circuit.validate() == []
            total = np.exp(circuit.log_density(rows)).sum()
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_one_hot_first_split_matches_hard_learner(self, rng):
        # with a hard injected split whose children immediately factorize
        # (mass below min_instances), soft and hard recursion coincide
        matrix = toy.generate(30, rng)
        membership = np.zeros((60, 2))
        membership[:30, 0] = 1.0
        membership[30:, 1] = 1.0
        data = WeightedDataset(matrix, None, Schema.continuous(2))
        hp = Hyperparams(p_threshold=0.001, min_instances=50, seed=1)
        a, _ = soft_learn(data, hp, first_split=membership)
        b, _ = learn_spn(data, hp, first_split=membership)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("fn", [learn_spn, soft_learn, split_circuit, em_factorized])
    @pytest.mark.parametrize(
        "bad, match",
        [(np.full((59, 2), 0.5), "shape"), (np.full((1, 2), 0.5), "shape"),
         (np.full(60, 1.0), "shape"), (np.ones((60, 0)), "shape"),
         (np.tile([1.5, -0.5], (60, 1)), "nonnegative"),
         (np.tile([np.nan, 0.5], (60, 1)), "finite"), (np.full((60, 2), 0.4), "sum to 1"),
         (np.full((60, 2), 1.5), "sum to 1")],
    )
    def test_rejects_malformed_first_split(self, rng, fn, bad, match):
        # every entry that takes a membership; EM's init_membership took any
        # array: a (1, 2) one broadcast to every row, rows summing to 3 passed
        data = WeightedDataset(toy.generate(30, rng), None, Schema.continuous(2))
        with pytest.raises(ValueError, match=match):
            if fn is split_circuit:
                fn(data, bad, Hyperparams())
            elif fn is em_factorized:
                fn(data.matrix, data.row_weights, (0, 1), data.schema, 2, init_membership=bad)
            else:
                fn(data, Hyperparams(), bad)

    def test_sum_weights_are_child_mass_fractions(self, rng):
        matrix = toy.generate(100, rng)
        membership = np.column_stack([np.full(200, 0.7), np.full(200, 0.3)])
        data = WeightedDataset(matrix, None, Schema.continuous(2))
        circuit = split_circuit(data, membership, Hyperparams())
        root = circuit.nodes[circuit.root]
        assert isinstance(root, SumNode)
        assert root.weights[0] == pytest.approx(0.7, abs=1e-12)
        assert root.weights[1] == pytest.approx(0.3, abs=1e-12)

    def test_mass_conservation_before_dropping(self, rng):
        # sum over children of V_i(d) equals the parent weight of d
        weights = rng.uniform(0.5, 2.0, size=50)
        resp = rng.dirichlet(np.ones(3), size=50)
        child_weights = resp * weights[:, None]
        assert np.allclose(child_weights.sum(axis=1), weights, atol=1e-9)

    def test_deterministic_serialization(self, rng):
        matrix = toy.generate(300, rng)
        data = WeightedDataset(matrix, None, Schema.continuous(2))
        hp = Hyperparams(p_threshold=0.001, seed=11)
        a, _ = soft_learn(data, hp)
        b, _ = soft_learn(data, hp)
        assert a.to_json() == b.to_json()

    def test_mixed_schema(self, rng):
        schema = Schema([*Schema.categorical([3]), *Schema.continuous(1)])
        cat = rng.integers(0, 3, size=500)
        cont = cat * 2.0 + rng.normal(0, 0.3, size=500)
        data = WeightedDataset(np.column_stack([cat, cont]).astype(float), None, schema)
        circuit, _ = soft_learn(data, Hyperparams())
        assert circuit.validate() == []
        assert math.isfinite(circuit.log_density([1.0, 2.0]))


class TestToyExperiment:
    def test_soft_recovers_x_means_under_bad_split(self):
        result = toy.run_toy(1000, adversarial=True, method="softlearn", seed=0)
        assert toy.x_mean_deviation(result) < 0.15
        for mu, _ in result.y_leaves:
            assert abs(abs(mu) - 2.0) < 0.1

    def test_hard_leaves_displaced_under_bad_split(self):
        result = toy.run_toy(1000, adversarial=True, method="learnspn", seed=0)
        assert toy.x_mean_deviation(result) > 0.3
        for mu, _ in result.x_leaves:
            assert 0.5 <= abs(mu) <= 1.1
        for mu, _ in result.y_leaves:
            assert abs(abs(mu) - 2.0) < 0.1

    def test_true_circuit_is_valid(self):
        assert toy.true_circuit().validate() == []

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            toy.run_toy(10, method="bogus")


class TestAlternativeConstructions:
    def test_factorized_circuit_matches_independent_leaf_fits(self, rng):
        matrix = rng.integers(0, 2, size=(40, 3)).astype(float)
        data = WeightedDataset(matrix, None, Schema.binary(3))
        hp = Hyperparams(alpha=0.0)
        circuit = factorized_circuit(data, hp)
        # oracle: product of per-column empirical frequencies
        ll = 0.0
        for j in range(3):
            freq = np.bincount(matrix[:, j].astype(int), minlength=2) / 40
            ll += np.log(freq[matrix[:, j].astype(int)]).mean()
        assert circuit.log_density(matrix).mean() == pytest.approx(ll, abs=1e-12)

    def test_equal_split_equals_factorized(self, rng):
        for _ in range(20):
            n = int(rng.integers(8, 64))
            n_vars = int(rng.integers(2, 6))
            matrix = rng.integers(0, 2, size=(n, n_vars)).astype(float)
            data = WeightedDataset(matrix, None, Schema.binary(n_vars))
            hp = Hyperparams(alpha=0.0)
            base = factorized_circuit(data, hp).log_density(matrix).mean()
            membership = np.full((n, 2), 0.5)
            split = split_circuit(data, membership, hp).log_density(matrix).mean()
            assert split == pytest.approx(base, abs=1e-9)

    def test_singleton_split_of_identical_rows_is_one_cluster(self):
        assert singleton_split_membership(np.ones((5, 3)), 2).tolist() == [[1.0]] * 5

    def test_singleton_split_children_beat_factorized_on_their_rows(self, rng):
        # each child's factorized fit is the MLE on the rows it represents,
        # so it cannot score those rows worse than the global factorized fit
        hp = Hyperparams(alpha=0.0)
        for _ in range(20):
            n = int(rng.integers(8, 64))
            n_vars = int(rng.integers(2, 6))
            matrix = rng.integers(0, 2, size=(n, n_vars)).astype(float)
            schema = Schema.binary(n_vars)
            data = WeightedDataset(matrix, None, schema)
            full_fit = factorized_circuit(data, hp)
            membership = singleton_split_membership(matrix, int(rng.integers(0, n)))
            for i in range(membership.shape[1]):
                part = matrix[membership[:, i] == 1.0]
                child_fit = factorized_circuit(WeightedDataset(part, None, schema), hp)
                child_ll = child_fit.log_density(part).sum()
                base_ll = full_fit.log_density(part).sum()
                assert child_ll >= base_ll - 1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="the full mixture LL of a singleton split can fall below the "
        "factorized LL: the mixing-weight entropy cost t*log(w) + "
        "(n-t)*log(1-w) can exceed the per-child fit gain",
    )
    def test_singleton_split_mixture_ll_always_at_least_factorized(self, rng):
        hp = Hyperparams(alpha=0.0)
        for _ in range(100):
            n = int(rng.integers(8, 64))
            n_vars = int(rng.integers(2, 6))
            matrix = rng.integers(0, 2, size=(n, n_vars)).astype(float)
            data = WeightedDataset(matrix, None, Schema.binary(n_vars))
            base = factorized_circuit(data, hp).log_density(matrix).mean()
            best = max(
                split_circuit(data, singleton_split_membership(matrix, r), hp)
                .log_density(matrix).mean()
                for r in range(n)
            )
            assert best >= base - 1e-9

    def test_trace_is_chronological_and_complete(self, rng):
        matrix = two_block_binary(rng, 300)
        data = WeightedDataset(matrix, None, Schema.binary(4))
        circuit, trace = soft_learn(data, Hyperparams(min_instances=20))
        kinds = {s.step_kind for s in trace.steps}
        assert kinds <= {"leaf", "product", "sum", "factorize"}
        assert len(trace.steps) >= 1
        assert trace.steps[0].effective_mass == pytest.approx(300.0)


class TestAssembly:
    """``_assemble`` walks the learned tree on its own stack and emits it in
    the order of a recursive post-order walk."""

    @pytest.mark.parametrize("kind", ["binary", "mixed"])
    @pytest.mark.parametrize("clusterer", CLUSTERERS)
    @pytest.mark.parametrize("soft", [False, True])
    def test_matches_a_recursive_walk_after_every_step(self, soft, clusterer, kind):
        matrix, schema = pinned_data(kind)
        data = WeightedDataset(matrix, None, schema)
        hp = Hyperparams(clusterer=clusterer)
        root = learner._root(data)
        for _ in learner._steps(root, data, hp, soft, None):  # open subproblems are capped
            expected = reference_assemble(root, data, hp.alpha).to_json()
            assert learner._assemble(root, data, hp.alpha).to_json() == expected

    def test_a_5000_deep_tree_assembles(self):
        rng = np.random.default_rng(0)
        data = WeightedDataset(np.column_stack([rng.normal(size=20), rng.integers(0, 2, 20)]), None,
                               Schema([Variable("cont"), Variable("cat", 2)]))
        root = sub = learner._root(data)
        for _ in range(5000):  # a sum over the next level and an open subproblem
            deeper = learner._root(data)
            sub.children, sub.sum_weights = [deeper, learner._root(data)], (0.5, 0.5)
            sub = deeper
        circuit = learner._assemble(root, data, 0.01)
        assert circuit.n_nodes == 5000 + 5001 * 3  # each open subproblem: two leaves, a product
        assert circuit.validate() == []
        assert np.isfinite(circuit.log_density(data.matrix)).all()


class TestPinnedOutput:
    """Learner output on fixed data, recorded from the reference recursion:
    node count, (sum, product, factorize, leaf) step counts, train mean LL."""

    @pytest.mark.parametrize(
        "learn, clusterer, kind, nodes, steps, train_ll",
        [
            (learn_spn, "em", "binary", 25, (3, 6, 1, 13), -3.8353681795253998),
            (learn_spn, "kmeans", "binary", 24, (3, 5, 1, 13), -3.8369658396974553),
            (soft_learn, "em", "binary", 15, (1, 3, 0, 11), -3.8269548804355007),
            (soft_learn, "kmeans", "binary", 57, (7, 9, 4, 21), -4.049936069945985),
            (learn_spn, "em", "mixed", 10, (1, 3, 0, 6), -4.263554037648191),
            (learn_spn, "kmeans", "mixed", 10, (1, 3, 0, 6), -4.270119536885327),
            (soft_learn, "em", "mixed", 10, (1, 3, 0, 6), -4.2626113483255565),
            (soft_learn, "kmeans", "mixed", 18, (3, 5, 0, 10), -4.388091686658757),
        ],
    )
    def test_learner_output(self, learn, clusterer, kind, nodes, steps, train_ll):
        matrix, schema = pinned_data(kind)
        circuit, trace = learn(WeightedDataset(matrix, None, schema), Hyperparams(clusterer=clusterer))
        assert circuit.n_nodes == nodes
        assert step_counts(trace) == steps
        assert circuit.log_density(matrix).mean() == pytest.approx(train_ll, abs=1e-9)


class TestNarrowIntervalsOfLearnedCircuits:
    @pytest.mark.parametrize("clusterer", ["em", "kmeans"])
    @pytest.mark.parametrize("learn", [learn_spn, soft_learn])
    def test_interval_mass_over_its_width_tends_to_the_density(self, learn, clusterer):
        """On each continuous variable an interval of half-width h = 1e-7
        around the row's value: ``log_marginal - log 2h`` per interval is
        ``log_density`` within 1e-6, also for rows moved 40 to 120 standard
        deviations past the leaves, where the mass is far below the
        smallest float."""
        matrix, schema = pinned_data("mixed")
        circuit, _ = learn(WeightedDataset(matrix, None, schema), Hyperparams(clusterer=clusterer))
        cont = [v for v, var in enumerate(schema) if var.kind == "cont"]
        h = 1e-7
        moved = np.isin(np.arange(len(schema)), cont)
        rows = np.vstack([matrix[::20] + shift * moved for shift in (0.0, -60.0, 45.0)])
        density = circuit.log_density(rows)
        assert np.isfinite(density).all() and density.min() < -1000
        for row, expected in zip(rows, density):
            query = [(x - h, x + h) if v in cont else int(x) for v, x in enumerate(row)]
            got = circuit.log_marginal(query) - len(cont) * math.log(2 * h)
            assert got == pytest.approx(expected, rel=0, abs=1e-6), row


class TestProductChildrenGoStraightToClustering:
    """A product's child keeps its parent's rows and weights, and its scope
    is one connected component of the parent's dependency graph, so the
    learner does not test it again."""

    @pytest.mark.parametrize("kind", ["binary", "mixed"])
    @pytest.mark.parametrize("clusterer", ["em", "kmeans"])
    @pytest.mark.parametrize("learn", [learn_spn, soft_learn])
    def test_testing_a_product_child_again_returns_it_whole(self, learn, clusterer, kind,
                                                           monkeypatch):
        original = independence.partition_scope
        calls = []

        def recording(matrix, weights, scope, schema, p_threshold):
            groups = original(matrix, weights, scope, schema, p_threshold)
            calls.append((matrix, weights, groups))
            return groups

        monkeypatch.setattr(independence, "partition_scope", recording)
        matrix, schema = pinned_data(kind)
        wide = 0
        for seed in range(3):
            calls.clear()
            hp = Hyperparams(clusterer=clusterer, seed=seed)
            learn(WeightedDataset(matrix, None, schema), hp)
            # product children share their parent's weights array, and none is tested
            assert len({id(weights) for _, weights, _ in calls}) == len(calls)
            for sub, weights, groups in calls:
                if len(groups) > 1:
                    for group in groups:
                        assert original(sub, weights, group, schema, hp.p_threshold) == [group]
                        wide += len(group) > 1
        assert wide > 0


@st.composite
def mixed_data(draw):
    """Up to 200 rows of 2-6 variables, categorical (arity 2-5) or
    continuous, each row drawn from one of two latent components so that the
    learners find both products and sums."""
    n_rows, n_vars = draw(st.integers(10, 200)), draw(st.integers(2, 6))
    arities = draw(st.lists(st.sampled_from([None, 2, 3, 4, 5]), min_size=n_vars,
                            max_size=n_vars))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.random(n_rows) < draw(st.floats(0.0, 1.0))
    columns, variables = [], []
    for arity in arities:
        if arity is None:
            values = rng.normal(rng.normal(0.0, 5.0, 2)[z.astype(int)], 1.0)
            columns.append(np.round(values, draw(st.integers(0, 3))))  # rounding makes ties
            variables.append(Variable("cont"))
        else:
            probs = rng.dirichlet(np.ones(arity), 2)
            columns.append([rng.choice(arity, p=probs[int(k)]) for k in z])
            variables.append(Variable("cat", arity))
    return np.column_stack(columns).astype(float), Schema(variables)


class TestEveryLearnedCircuitIsValid:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(mixed_data(), st.sampled_from([5.0, 50.0]))
    def test_both_learners_with_both_clusterers(self, data, min_instances):
        matrix, schema = data
        for learn in (learn_spn, soft_learn):
            for clusterer in ("em", "kmeans"):
                hp = Hyperparams(clusterer=clusterer, min_instances=min_instances)
                circuit, _ = learn(WeightedDataset(matrix, None, schema), hp)
                assert circuit.validate() == []
                assert np.isfinite(circuit.log_density(matrix).mean())


@st.composite
def fuzz_case(draw):
    """A small learn: 2-30 rows of 2-5 columns, each categorical or
    continuous and random, constant, tied, zero-inflated or extreme; weights
    unit or ``exp(N(0, 3))``; either learner and clusterer, 1-3 clusters."""
    n_rows = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns, variables = [], []
    for _ in range(draw(st.integers(2, 5))):
        arity = draw(st.sampled_from([None, 2, 3, 4]))
        shape = draw(st.sampled_from(["random", "constant", "tied", "zero-inflated", "extreme"]))
        if arity is None:
            scale = 10.0 ** draw(st.integers(-12, 89))
            values = {
                "random": rng.standard_normal(n_rows) * scale,
                "constant": np.full(n_rows, rng.standard_normal() * scale),
                "tied": rng.choice(rng.standard_normal(2) * scale, n_rows),
                "zero-inflated": rng.standard_normal(n_rows) * scale * (rng.random(n_rows) < 0.2),
                "extreme": rng.choice([-CONT_MAX_ABS, 0.0, scale, CONT_MAX_ABS], n_rows),
            }[shape]
            variables.append(Variable("cont"))
        else:
            values = {
                "random": rng.integers(0, arity, n_rows),
                "constant": np.full(n_rows, rng.integers(0, arity)),
                "tied": rng.choice(rng.integers(0, arity, 2), n_rows),
                "zero-inflated": rng.integers(0, arity, n_rows) * (rng.random(n_rows) < 0.2),
                "extreme": np.where(rng.random(n_rows) < 0.9, arity - 1, 0),
            }[shape]
            variables.append(Variable("cat", arity))
        columns.append(values)
    hp = Hyperparams(n_clusters=draw(st.integers(1, 3)),
                     min_instances=draw(st.sampled_from([2.0, 5.0, 20.0])),
                     clusterer=draw(st.sampled_from(CLUSTERERS)), seed=draw(st.integers(0, 1000)))
    weights = None
    if draw(st.booleans()):
        # min_instances is in row-weight units, so a soft_learn grows with
        # the total weight, a known limit of the rule (README,
        # --min-instances); the cap keeps each learn small
        weights = np.maximum(np.exp(rng.normal(0.0, 3.0, n_rows)), EPSILON_W)
        weights = np.maximum(weights * min(1.0, 100 * hp.min_instances / weights.sum()), EPSILON_W)
    return np.column_stack(columns).astype(float), Schema(variables), weights, draw(st.booleans()), hp


def sliver_case():
    """Ten weighted rows on which ``soft_learn`` with EM, were it not for
    ``_split``'s sliver guard, splits off slivers of about 2e-6 of the mass
    for 1712 sum steps: a tree too deep for a recursive walk to assemble."""
    rng = np.random.default_rng(80)
    kinds = rng.integers(0, 2, rng.integers(2, 5))
    columns = [rng.standard_normal(10) if kind else rng.integers(0, 3, 10).astype(float)
               for kind in kinds]
    schema = Schema(Variable("cont") if kind else Variable("cat", 3) for kind in kinds)
    weights = np.maximum(np.exp(rng.normal(0.0, 3.0, 10)), EPSILON_W)
    hp = Hyperparams(n_clusters=3, min_instances=5.0, clusterer="em", seed=80)
    return np.column_stack(columns), schema, weights, True, hp


@contextlib.contextmanager
def default_recursion_limit():
    """Python's default recursion limit for the block.  Hypothesis raises
    the limit while it runs a test; a learn called from a script has 1000."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class TestLearnerFuzz:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(fuzz_case())
    @example(sliver_case())
    def test_every_learn_gives_a_valid_normalized_circuit(self, case):
        matrix, schema, weights, soft, hp = case
        with warnings.catch_warnings(), default_recursion_limit():
            warnings.simplefilter("error", RuntimeWarning)
            data = WeightedDataset(matrix, weights, schema)
            circuit, _ = (soft_learn if soft else learn_spn)(data, hp)
            assert circuit.validate() == []
            assert abs(circuit.log_marginal([None] * len(schema))) <= 1e-9
            assert np.isfinite(circuit.log_density(matrix)).all()
            assert Circuit.from_json(circuit.to_json()) == circuit
            if all(var.kind == "cat" for var in schema):
                states = np.array(list(itertools.product(*(range(var.arity) for var in schema))))
                assert abs(logsumexp(circuit.log_density(states.astype(float)))) <= 1e-9


def bound_data(n=400):
    """Two-component rows over (cont, cat(2), cont, cat(3)); the continuous
    columns are scaled to reach +-CONT_MAX_ABS exactly."""
    rng = np.random.default_rng(0)
    z = rng.random(n) < 0.4
    cont = np.clip(rng.normal(np.where(z, 0.5, -0.5), 0.3), -1.0, 1.0) * CONT_MAX_ABS
    cont[:3] = (CONT_MAX_ABS, -CONT_MAX_ABS, CONT_MAX_ABS)
    binary = np.where(z, rng.random(n) < 0.8, rng.random(n) < 0.2)
    matrix = np.column_stack([cont, binary, cont[::-1], rng.integers(0, 3, n)]).astype(float)
    schema = Schema([Variable("cont"), Variable("cat", 2), Variable("cont"), Variable("cat", 3)])
    return matrix, schema


class TestInputBounds:
    """At each documented bound on what the learners accept, every learner
    returns a valid circuit with finite log densities; one step past it,
    the input is rejected where it enters."""

    @staticmethod
    def assert_learns_valid(matrix, schema, weights, **fields):
        for learn in (learn_spn, soft_learn):
            for clusterer in CLUSTERERS:
                hp = Hyperparams(clusterer=clusterer, **fields)
                circuit, _ = learn(WeightedDataset(matrix, weights, schema), hp)
                assert circuit.validate() == []
                assert np.isfinite(circuit.log_density(matrix)).all()

    def test_continuous_magnitude(self):
        matrix, schema = bound_data()
        assert np.abs(matrix).max() == CONT_MAX_ABS
        self.assert_learns_valid(matrix, schema, None, min_instances=5.0)
        for bad in (np.nextafter(CONT_MAX_ABS, np.inf), -np.nextafter(CONT_MAX_ABS, np.inf), 1e200):
            outside = matrix.copy()
            outside[7, 2] = bad
            with pytest.raises(ValueError, match="at most 1e\\+100 in magnitude"):
                WeightedDataset(outside, None, schema)

    def test_total_row_weight(self):
        matrix, schema = bound_data()
        weights = np.full(len(matrix), MAX_TOTAL_WEIGHT / len(matrix))
        assert weights.sum() == MAX_TOTAL_WEIGHT
        # a mass threshold on the weights' scale, so a soft split does not
        # recurse until each child's mass falls below 50
        self.assert_learns_valid(matrix, schema, weights, min_instances=MAX_TOTAL_WEIGHT / 8)
        over = weights.copy()
        over[0] = np.nextafter(over[0], np.inf) * (1 + 1e-12)
        for bad in (over, np.full(len(matrix), 1e306), np.full(len(matrix), 1e110)):
            with pytest.raises(ValueError, match="total at most 1e\\+100"):
                WeightedDataset(matrix, bad, schema)

    def test_alpha(self):
        matrix, schema = bound_data()
        categorical = matrix[:, [1, 3]]
        self.assert_learns_valid(categorical, Schema([schema[1], schema[3]]), None,
                                 alpha=MAX_TOTAL_WEIGHT, min_instances=5.0)
        for bad in (np.nextafter(MAX_TOTAL_WEIGHT, np.inf), 1e308):
            with pytest.raises(ValueError, match="alpha must be in"):
                Hyperparams(alpha=bad)
