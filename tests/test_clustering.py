import numpy as np
import pytest

from softpc import clustering, estimators, toy
from softpc.clustering import (
    em_factorized,
    encode_rows,
    harden,
    soft_kmeans,
    softmax_memberships,
)
from softpc.estimators import SIGMA_FLOOR, Gaussian, Multinomial
from softpc.learner import Hyperparams, WeightedDataset, learn_spn, soft_learn
from softpc.schema import Schema, Variable

import conftest
from conftest import (
    reference_distinct_row_kmeans,
    reference_distinct_rows,
    reference_em_factorized,
    reference_matrix_em,
    reference_soft_kmeans,
)


def blobs(rng, centers, n_per, sigma=0.1):
    parts = [c + sigma * rng.standard_normal((n_per, len(np.atleast_1d(c)))) for c in centers]
    return np.vstack(parts)


def row_entropy(resp):
    safe = np.clip(resp, 1e-300, 1.0)
    return -(resp * np.log(safe)).sum(axis=1)


class TestSoftmaxMemberships:
    # rows are component-major, (d, m), and responsibilities come back (k, m)
    def test_equidistant_point_gets_uniform_responsibility(self):
        centroids = np.array([[1.0, 0.0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]])
        resp = softmax_memberships(np.zeros((2, 1)), centroids, beta=4.0)
        assert resp.shape == (3, 1)
        assert np.allclose(resp, 1 / 3, atol=1e-12)

    def test_beta_zero_is_uniform(self, rng):
        encoded = rng.normal(size=(20, 3))
        centroids = rng.normal(size=(4, 3))
        resp = softmax_memberships(encoded.T, centroids, beta=0.0)
        assert resp.shape == (4, 20)
        assert np.allclose(resp, 0.25, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_buffers_give_the_allocating_bits(self, rng, k):
        encoded_t = rng.normal(size=(6, 40)).round(1)
        centroids = rng.normal(size=(k, 6))
        # row 0 sits on every centroid in the second call
        for cents in (centroids, np.repeat(encoded_t[:, :1].T, k, axis=0)):
            out, scratch = np.empty((k, 40)), np.empty((k, 6, 40))
            got = softmax_memberships(encoded_t, cents, 4.0, out=out, scratch=scratch)
            assert got is out
            ref = conftest._allocating_softmax_memberships(encoded_t, cents, 4.0)
            assert np.array_equal(got, ref)
            assert np.array_equal(softmax_memberships(encoded_t, cents, 4.0), ref)

    def test_rows_sum_to_one_and_lie_in_unit_interval(self, rng):
        resp = softmax_memberships(rng.normal(size=(50, 2)).T, rng.normal(size=(3, 2)), 4.0)
        assert resp.shape == (3, 50)
        assert np.allclose(resp.sum(axis=0), 1.0, atol=1e-9)
        assert np.all((resp >= 0) & (resp <= 1))

    def test_point_on_single_centroid(self):
        centroids = np.array([[0.0, 0.0], [0.0, 0.0]])
        resp = softmax_memberships(np.zeros((2, 1)), centroids, beta=4.0)
        assert resp.shape == (2, 1)
        assert np.allclose(resp, 0.5)


class TestEncodeRows:
    def test_one_hot_and_standardize(self):
        schema = Schema([*Schema.categorical([3]), *Schema.continuous(1)])
        matrix = np.array([[0.0, 1.0], [2.0, 3.0]])
        enc = encode_rows(matrix, np.ones(2), (0, 1), schema)
        assert enc.shape == (2, 4)
        assert enc[0, :3].tolist() == [1.0, 0.0, 0.0]
        assert enc[1, :3].tolist() == [0.0, 0.0, 1.0]
        assert enc[:, 3].tolist() == [-1.0, 1.0]

    def test_zero_variance_column_passes_through(self):
        schema = Schema.continuous(1)
        enc = encode_rows(np.full((5, 1), 2.0), np.ones(5), (0,), schema)
        assert np.allclose(enc, 0.0)

    @pytest.mark.parametrize("value", [2.0, -1.0, 0.5, np.nan])
    def test_categorical_value_not_a_level_raises(self, value):
        # 2 used to set the next variable's one-hot slot, -1 the last slot,
        # and 0.5 to count as level 0
        matrix = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        matrix[1, 0] = value
        with pytest.raises(ValueError, match="out of range"):
            encode_rows(matrix, np.ones(3), (0, 1), Schema.binary(2))

    @pytest.mark.parametrize("weight", [np.nan, 0.0, -1.0])
    def test_bad_weight_raises(self, weight):
        weights = np.ones(3)
        weights[1] = weight
        matrix = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="weights"):
            encode_rows(matrix, weights, (0, 1), Schema.binary(2))


class TestOneEntryCheck:
    # each clustering entry checks its weights and its categorical levels
    # once, at its start; EM's k-means start, the row keys and EM's closing
    # leaf_log_pdf pass trust that check.  Every call counts, 1-d ones too.
    @pytest.mark.parametrize("entry", ["soft_kmeans", "em_factorized", "encode_rows"])
    def test_one_weights_and_one_codes_check_per_call(self, rng, monkeypatch, entry):
        calls = []

        def counting(name):
            original = getattr(estimators, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(estimators, name, wrapper)

        counting("check_weights")
        counting("categorical_codes")
        matrix, schema = _latent_mixed(rng)
        args = (matrix, np.ones(matrix.shape[0]), tuple(range(6)), schema)
        if entry == "soft_kmeans":
            soft_kmeans(*args, 2, 4.0, rng=rng)
        elif entry == "em_factorized":
            resp, mixture = em_factorized(*args, 2, rng=rng)
            # K = 2 components over 3 categorical variables, each read once
            assert resp.shape[1] == len(mixture.components) == 2
        else:
            encode_rows(*args)
        assert sorted(calls) == ["categorical_codes", "check_weights"]


class TestSoftKmeans:
    def test_large_beta_approaches_one_hot(self, rng):
        matrix = blobs(rng, [np.array([-10.0]), np.array([10.0])], 100)
        resp = soft_kmeans(matrix, np.ones(200), (0,), Schema.continuous(1), 2, beta=1e3, rng=rng)
        assert row_entropy(resp).max() < 0.01

    def test_separated_blob_centroids_recovered(self, rng):
        matrix = blobs(rng, [np.array([-10.0]), np.array([10.0])], 100)
        weights = np.ones(200)
        resp = soft_kmeans(matrix, weights, (0,), Schema.continuous(1), 2, beta=100.0, rng=rng)
        means = sorted(
            float((weights * resp[:, i] * matrix[:, 0]).sum() / (weights * resp[:, i]).sum())
            for i in range(2)
        )
        assert means[0] == pytest.approx(-10.0, abs=0.2)
        assert means[1] == pytest.approx(10.0, abs=0.2)

    def test_k_reduced_when_more_clusters_than_rows(self, rng):
        matrix = rng.normal(size=(3, 2))
        resp = soft_kmeans(matrix, np.ones(3), (0, 1), Schema.continuous(2), 5, beta=4.0, rng=rng)
        assert resp.shape == (3, 3)
        assert np.allclose(resp.sum(axis=1), 1.0)

    def test_one_hot_unit_weight_centroid_is_classical_mean(self, rng):
        # with hard responsibilities the update is the plain cluster mean
        encoded = rng.normal(size=(10, 2))
        resp = np.zeros((10, 2))
        resp[:5, 0] = 1.0
        resp[5:, 1] = 1.0
        weights = np.ones(10)
        eff = weights[:, None] * resp
        centroid0 = eff[:, 0] @ encoded / eff[:, 0].sum()
        assert np.allclose(centroid0, encoded[:5].mean(axis=0), atol=1e-12)

    def test_deterministic_under_seed(self, rng):
        matrix = rng.normal(size=(60, 2))
        a = soft_kmeans(matrix, np.ones(60), (0, 1), Schema.continuous(2), 2, 4.0,
                        rng=np.random.default_rng(5))
        b = soft_kmeans(matrix, np.ones(60), (0, 1), Schema.continuous(2), 2, 4.0,
                        rng=np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_no_rng_seeds_with_zero(self, rng):
        args = (rng.normal(size=(60, 2)), np.ones(60), (0, 1), Schema.continuous(2), 2, 4.0)
        assert np.array_equal(soft_kmeans(*args), soft_kmeans(*args, rng=np.random.default_rng(0)))

    @pytest.mark.parametrize("value", [-1.0, 2.0, 0.5, np.nan])
    @pytest.mark.parametrize("column", [0, 3])
    def test_categorical_value_not_a_level_raises(self, rng, value, column):
        # -1 used to set the previous variable's one-hot slot, 2 the next
        # one's (or to index past the encoding), and 0.5 to count as level
        # 0; the continuous column 2 may hold any real, -0.5 and 0.5 here
        matrix = rng.integers(0, 2, size=(200, 4)).astype(float)
        matrix[:, 2] -= 0.5
        schema = Schema([Variable("cat", 2)] * 2 + [Variable("cont"), Variable("cat", 2)])
        args = (np.ones(200), (0, 1, 2, 3), schema, 2, 4.0)
        assert soft_kmeans(matrix, *args, rng=rng).shape == (200, 2)
        matrix[17, column] = value
        with pytest.raises(ValueError, match="out of range"):
            soft_kmeans(matrix, *args, rng=rng)


def _repeated_binary(rng, n=1500, n_vars=6, patterns=12):
    table = rng.integers(0, 2, size=(patterns, n_vars))
    return table[rng.integers(0, patterns, size=n)].astype(float)


def _repeated_mixed(rng, n=1200):
    # a ternary, a continuous column holding few distinct values, and a binary
    table = np.column_stack(
        [rng.integers(0, 3, size=8), rng.normal(size=8).round(1), rng.integers(0, 2, size=8)]
    )
    schema = Schema([Variable("cat", 3), Variable("cont"), Variable("cat", 2)])
    return table[rng.integers(0, 8, size=n)], schema


def _starved_cluster(rng):
    # k-means++ seeds one centroid on each of the two groups near 0, then on
    # the far outlier, whose weight is too small for it to keep a cluster;
    # the re-seed must pick the single heavy row at 0 (weight * distance
    # 5 * 10, against at most 1.5 * 9 for a row at 1), not the twenty rows
    # at 1 that outweigh it as a group
    matrix = np.concatenate([[0.0], np.ones(20), [10.0]])[:, None]
    weights = np.concatenate([[5.0], rng.uniform(0.5, 1.5, size=20), [1e-9]])
    return matrix, weights, Schema.continuous(1), 3, 60.0


def _signed_zero_and_ulp(rng, n=300):
    # a continuous column over 0.0, -0.0, 1.0 and the float 1 ulp above 1.0:
    # the raw bytes of each pair differ, so each pair is two distinct rows
    values = np.array([0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), 2.5])
    matrix = np.column_stack([values[rng.integers(0, 5, size=n)], rng.integers(0, 2, size=n)])
    return matrix, Schema([Variable("cont"), Variable("cat", 2)])


class TestSoftKmeansMatchesRowByRowReference:
    @pytest.mark.parametrize(
        "case",
        ["heavy_duplication", "unequal_duplicate_weights", "mixed", "starved_cluster",
         "signed_zero_and_ulp", "more_clusters_than_distinct_rows", "one_row"],
    )
    def test_collapsed_rows_match_every_row_clustered(self, rng, case):
        if case == "starved_cluster":
            matrix, weights, schema, k, beta = _starved_cluster(rng)
        elif case == "mixed":
            matrix, schema = _repeated_mixed(rng)
            weights, k, beta = rng.uniform(0.01, 3.0, size=matrix.shape[0]), 4, 4.0
        elif case == "signed_zero_and_ulp":
            matrix, schema = _signed_zero_and_ulp(rng)
            weights, k, beta = rng.uniform(0.01, 3.0, size=matrix.shape[0]), 3, 4.0
        elif case == "more_clusters_than_distinct_rows":
            matrix = _repeated_binary(rng, n=200, n_vars=4, patterns=3)
            schema, k, beta = Schema.binary(4), 6, 4.0
            weights = rng.uniform(0.01, 3.0, size=matrix.shape[0])
            assert len(np.unique(matrix, axis=0)) < k
        elif case == "one_row":
            matrix, schema = _repeated_mixed(rng, n=1)
            weights, k, beta = np.array([0.7]), 3, 4.0
        else:
            matrix = _repeated_binary(rng)
            schema, k, beta = Schema.binary(matrix.shape[1]), 3, 4.0
            weights = np.ones(matrix.shape[0])
            if case == "unequal_duplicate_weights":
                weights = rng.uniform(0.01, 3.0, size=matrix.shape[0])
        scope = tuple(range(matrix.shape[1]))
        for seed in range(4):
            got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = soft_kmeans(matrix, weights, scope, schema, k, beta, rng=got_rng)
            ref = reference_soft_kmeans(matrix, weights, scope, schema, k, beta, rng=ref_rng)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def _soft_binary_rows(rng, n, n_vars=16, n_components=4):
    # a uniform mixture of Bernoulli products, the shape the soft-binary
    # benchmark learns from: 16 binary variables whose rows repeat
    probs = np.clip(rng.beta(0.5, 0.5, size=(n_components, n_vars)), 0.02, 0.98)
    z = rng.integers(0, n_components, size=n)
    return (rng.random((n, n_vars)) < probs[z]).astype(float), Schema.binary(n_vars)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 12: at the default beta=4, soft k-means collapses on "
    "soft-binary rows; its two centroids converge onto each other and every "
    "membership is within 1e-6 of 1/2 (at beta=20 the largest deviation is 0.496)",
)
def test_soft_kmeans_separates_soft_binary_rows_at_the_default_beta():
    matrix, schema = _soft_binary_rows(np.random.default_rng(0), 2000)
    resp = soft_kmeans(matrix, np.ones(len(matrix)), tuple(range(matrix.shape[1])), schema,
                       2, Hyperparams().beta, rng=np.random.default_rng(0))
    assert np.abs(resp - 0.5).max() > 0.1


class TestLearnersMatchReferenceKmeans:
    @pytest.mark.parametrize("learn", [learn_spn, soft_learn])
    @pytest.mark.parametrize("rows", ["soft_binary", "mixed"])
    def test_same_circuit_as_with_reference_kmeans(self, rng, monkeypatch, learn, rows):
        if rows == "soft_binary":
            matrix, schema = _soft_binary_rows(rng, 1200)
        else:
            matrix, schema = _latent_mixed(rng, n=1200)
        train, test = matrix[:800], matrix[800:]
        hp = Hyperparams(p_threshold=0.01, clusterer="kmeans", seed=3)
        got, got_trace = learn(WeightedDataset(train, None, schema), hp)
        monkeypatch.setattr(clustering, "soft_kmeans", reference_soft_kmeans)
        ref, ref_trace = learn(WeightedDataset(train, None, schema), hp)
        assert got.n_nodes == ref.n_nodes
        assert [s.step_kind for s in got_trace.steps] == [s.step_kind for s in ref_trace.steps]
        assert "sum" in {s.step_kind for s in got_trace.steps}
        assert np.abs(got.log_density(test) - ref.log_density(test)).max() <= 1e-9


def _categorical_rows(rng, n, arities, patterns=40):
    # rows drawn from a few patterns, so they repeat
    table = np.column_stack([rng.integers(0, a, size=patterns) for a in arities])
    matrix = table[rng.integers(0, patterns, size=n)].astype(float)
    return matrix, Schema.categorical([int(a) for a in arities])


class TestSoftKmeansMatchesAllocatingReference:
    # bit for bit: the same memberships and the same random stream after each call
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("case", ["soft_binary", "categorical_2_to_7", "mixed"])
    def test_same_bits_as_allocating_loop(self, rng, case, k):
        if case == "soft_binary":
            matrix, schema = _soft_binary_rows(rng, 600)
        elif case == "categorical_2_to_7":
            matrix, schema = _categorical_rows(rng, 500, range(2, 8))
        else:
            matrix, schema = _repeated_mixed(rng, n=500)
        weights = rng.uniform(0.01, 3.0, size=matrix.shape[0])
        self._assert_same_bits(matrix, weights, tuple(range(matrix.shape[1])), schema, k, 4.0)

    @pytest.mark.parametrize("case", ["starved_cluster", "one_row", "scope_subset"])
    def test_same_bits_in_edge_cases(self, rng, case):
        if case == "starved_cluster":
            matrix, weights, schema, k, beta = _starved_cluster(rng)
            scope = (0,)
        elif case == "one_row":
            matrix, schema = _repeated_mixed(rng, n=1)
            weights, scope, k, beta = np.array([0.7]), (0, 1, 2), 3, 4.0
        else:
            matrix, schema = _categorical_rows(rng, 400, (3, 2, 6, 4, 5))
            weights, scope, k, beta = np.ones(400), (4, 0, 2), 3, 8.0
        self._assert_same_bits(matrix, weights, scope, schema, k, beta)

    @staticmethod
    def _assert_same_bits(matrix, weights, scope, schema, k, beta):
        got_rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(3):
            got = soft_kmeans(matrix, weights, scope, schema, k, beta, rng=got_rng)
            ref = reference_distinct_row_kmeans(matrix, weights, scope, schema, k, beta,
                                                rng=ref_rng)
            assert np.array_equal(got, ref)
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state


class TestEmMatchesAllocatingReference:
    @pytest.mark.parametrize("case", ["kmeans_start", "empty_levels", "collapsed_prior"])
    def test_same_bits_as_allocating_loop(self, rng, case):
        matrix, schema = _latent_mixed(rng, n=300)
        weights = rng.uniform(0.05, 3.0, size=300)
        scope, kwargs = tuple(range(6)), {}
        if case == "empty_levels":
            # alpha = 0 leaves the levels without weight at probability 0
            matrix, schema = _categorical_rows(rng, 300, (2, 3, 4, 2))
            matrix[:150, 3] = 0.0
            init = np.zeros((300, 2))
            init[:150, 0] = init[150:, 1] = 1.0
            scope, kwargs = (0, 1, 2, 3), {"alpha": 0.0, "init_membership": init}
        elif case == "collapsed_prior":
            kwargs = {"init_membership": np.column_stack([np.ones(300) - 1e-12,
                                                          np.full(300, 1e-12)])}
        got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(2):
            got, got_mix = em_factorized(matrix, weights, scope, schema, 2, rng=got_rng, **kwargs)
            ref, ref_mix, ref_trace = reference_matrix_em(
                matrix, weights, scope, schema, 2, rng=ref_rng, return_trace=True, **kwargs)
            assert np.array_equal(got, ref)
            assert got_mix.ll_trace == ref_trace
            assert np.array_equal(got_mix.priors, ref_mix.priors)
            assert got_mix.components == ref_mix.components
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        if case == "empty_levels":
            assert 0.0 in [p for comp in got_mix.components for p in comp[3].probs]


class TestLearnersMatchAllocatingClusterers:
    # fractional row weights (soft_learn, EM) are where a change of memory
    # order in a reduction shows in the last bits; unit weights hide it
    @pytest.mark.parametrize("learn", [learn_spn, soft_learn])
    @pytest.mark.parametrize("clusterer,rows", [("kmeans", "soft_binary"), ("kmeans", "mixed"),
                                                ("em", "mixed")])
    def test_same_json(self, rng, monkeypatch, learn, clusterer, rows):
        if rows == "soft_binary":
            matrix, schema = _soft_binary_rows(rng, 600)
        else:
            matrix, schema = _latent_mixed(rng, n=300)
        hp = Hyperparams(p_threshold=0.01, clusterer=clusterer, seed=3)
        got, _ = learn(WeightedDataset(matrix, None, schema), hp)
        monkeypatch.setattr(clustering, "soft_kmeans", reference_distinct_row_kmeans)
        monkeypatch.setattr(clustering, "em_factorized", reference_matrix_em)
        ref, ref_trace = learn(WeightedDataset(matrix, None, schema), hp)
        assert "sum" in {s.step_kind for s in ref_trace.steps}
        assert got.to_json() == ref.to_json()


def _entry_codes(matrix, scope, schema):
    # the codes that the clustering entries' check makes for the scope
    return clustering._checked(matrix, np.ones(len(matrix)), scope, schema)[2]


class TestDistinctRowKeys:
    @pytest.mark.parametrize("n_cols", [1, 2, 7, 16])
    def test_categorical_keys_give_void_key_order(self, rng, n_cols):
        arities = rng.integers(2, 8, size=n_cols)
        matrix, schema = _categorical_rows(rng, 500, arities)
        scope = tuple(rng.permutation(n_cols))
        raw = np.ascontiguousarray(matrix[:, list(scope)])
        codes = _entry_codes(matrix, scope, schema)
        keys = clustering._level_keys(raw, codes, scope, schema)
        assert keys is not None and keys.dtype == np.int64
        got = clustering._distinct_rows(raw, codes, scope, schema)
        for a, b in zip(got, reference_distinct_rows(raw)):
            assert np.array_equal(a, b)

    def test_level_ranks_follow_float_bytes(self):
        # 2.0's bytes sort before 1.0's: the key order is not the numeric order
        raw = np.array([[1.0], [2.0], [0.0]])
        schema = Schema.categorical([3])
        first, inv = clustering._distinct_rows(raw, _entry_codes(raw, (0,), schema), (0,), schema)
        assert first.tolist() == [2, 1, 0] and inv.tolist() == [2, 1, 0]

    # values that are not levels never reach the keys: the clustering entries
    # reject them (test_categorical_value_not_a_level_raises,
    # test_categorical_code_out_of_range_raises)
    @pytest.mark.parametrize("case", ["negative_zero", "continuous", "past_int64",
                                      "arity_past_rank_table"])
    def test_other_scopes_take_void_keys(self, rng, case):
        matrix, schema = _categorical_rows(rng, 300, (2, 3, 4))
        if case == "negative_zero":
            matrix[::7, 1] = -0.0
        elif case == "continuous":
            schema = Schema([schema[0], Variable("cont"), schema[2]])
        elif case == "past_int64":
            schema = Schema.categorical([1024] * 7)
            matrix = rng.integers(0, 1024, size=(300, 7)).astype(float)
        else:
            schema = Schema([schema[0], Variable("cat", clustering._MAX_KEYED_ARITY + 1), schema[2]])
            matrix[:, 1] = rng.integers(0, clustering._MAX_KEYED_ARITY + 1, size=300)
        scope = tuple(range(matrix.shape[1]))
        raw = np.ascontiguousarray(matrix)
        codes = _entry_codes(matrix, scope, schema)
        assert clustering._level_keys(raw, codes, scope, schema) is None
        got = clustering._distinct_rows(raw, codes, scope, schema)
        for a, b in zip(got, reference_distinct_rows(raw)):
            assert np.array_equal(a, b)

    def test_keys_past_float64_exactness_give_void_key_order(self, rng):
        # 7**20, about 8.0e16 keys: past 2**53, which float64 sums hold
        # exactly, and below 2**62, where estimators.key_places stops
        matrix, schema = _categorical_rows(rng, 400, [7] * 20)
        scope = tuple(range(20))
        raw = np.ascontiguousarray(matrix)
        codes = _entry_codes(matrix, scope, schema)
        keys = clustering._level_keys(raw, codes, scope, schema)
        assert keys is not None and keys.dtype == np.int64
        got = clustering._distinct_rows(raw, codes, scope, schema)
        for a, b in zip(got, reference_distinct_rows(raw)):
            assert np.array_equal(a, b)
        weights = rng.uniform(0.01, 3.0, size=400)
        TestSoftKmeansMatchesAllocatingReference._assert_same_bits(matrix, weights, scope, schema,
                                                                   3, 4.0)


class TestTracedCalls:
    # bench/spans.py counts k-means iterations as calls of
    # clustering.softmax_memberships and EM iterations as leaf_log_pdf calls
    # after the EM loop; both must go through those module names
    @pytest.mark.parametrize("max_iter", [1, 4, 100])
    def test_one_membership_call_per_iteration_and_one_after(self, rng, monkeypatch, max_iter):
        calls = []

        def counting(original):
            def wrapper(*args, **kwargs):
                calls.append(original)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(clustering, "softmax_memberships",
                            counting(clustering.softmax_memberships))
        monkeypatch.setattr(conftest, "_allocating_softmax_memberships",
                            counting(conftest._allocating_softmax_memberships))
        matrix, schema = _soft_binary_rows(rng, 600)
        args = (matrix, np.ones(600), tuple(range(16)), schema, 2, 4.0, max_iter)
        soft_kmeans(*args, rng=np.random.default_rng(2))
        got = len(calls)
        reference_distinct_row_kmeans(*args, rng=np.random.default_rng(2))
        assert got == len(calls) - got
        assert 2 <= got <= max_iter + 1
        if max_iter < 100:
            assert got == max_iter + 1


class TestEmFactorized:
    def test_recovers_y_component_means(self, rng):
        matrix = toy.generate(400, rng)
        resp, mixture = em_factorized(
            matrix, np.ones(800), (0, 1), Schema.continuous(2), 2, rng=rng
        )
        y_means = sorted(
            comp[1].mu for comp in mixture.components if isinstance(comp[1], Gaussian)
        )
        assert y_means[0] == pytest.approx(-2.0, abs=0.1)
        assert y_means[1] == pytest.approx(2.0, abs=0.1)
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-9)

    def test_identical_rows_give_symmetric_components(self):
        matrix = np.tile([1.0, 0.0], (20, 1))
        resp, mixture = em_factorized(
            matrix, np.ones(20), (0, 1), Schema.binary(2), 2, alpha=0.01, max_iter=1
        )
        assert np.allclose(resp, 0.5, atol=1e-12)
        assert mixture.components[0][0].probs == mixture.components[1][0].probs

    def test_duplication_equivalence_with_same_init(self, rng):
        # exact as long as no effective weight crosses the drop threshold;
        # the moderate init keeps all responsibilities far above it here
        n = 30
        matrix = rng.integers(0, 2, size=(n, 3)).astype(float)
        counts = rng.integers(1, 4, size=n)
        init = rng.dirichlet((10.0, 10.0), size=n)
        expanded = np.repeat(matrix, counts, axis=0)
        init_expanded = np.repeat(init, counts, axis=0)
        schema = Schema.binary(3)
        for iters in (1, 4):
            _, mix_a = em_factorized(
                matrix, counts.astype(float), (0, 1, 2), schema, 2,
                init_membership=init, max_iter=iters,
            )
            _, mix_b = em_factorized(
                expanded, np.ones(expanded.shape[0]), (0, 1, 2), schema, 2,
                init_membership=init_expanded, max_iter=iters,
            )
            assert np.allclose(mix_a.priors, mix_b.priors, atol=1e-9)
            for ca, cb in zip(mix_a.components, mix_b.components):
                for da, db in zip(ca, cb):
                    assert np.allclose(da.probs, db.probs, atol=1e-9)

    def test_loglik_trace_is_monotone_with_exact_mle_fits(self, rng):
        # multinomial fits with alpha=0 are the exact weighted M-step
        # maximizers, so the classic EM monotonicity guarantee applies
        matrix = rng.integers(0, 2, size=(300, 4)).astype(float)
        matrix[:150, :2] = 1.0 - matrix[:150, :2]
        weights = rng.uniform(0.5, 2.0, size=300)
        _, mixture = em_factorized(
            matrix, weights, (0, 1, 2, 3), Schema.binary(4), 2, alpha=0.0, rng=rng
        )
        trace = mixture.ll_trace
        assert len(trace) >= 2
        assert np.all(np.diff(trace) >= -1e-9)

    def test_gaussian_trace_monotone_up_to_bessel_dip(self, rng):
        # the Bessel-corrected sigma is slightly larger than the M-step
        # maximizer, so near convergence the trace may dip once (which
        # immediately triggers the stop); all earlier steps must improve
        matrix = np.vstack(
            [rng.normal(-3, 1, size=(100, 1)), rng.normal(3, 1, size=(100, 1))]
        )
        weights = rng.uniform(0.5, 2.0, size=200)
        _, mixture = em_factorized(matrix, weights, (0,), Schema.continuous(1), 2, rng=rng)
        diffs = np.diff(mixture.ll_trace)
        assert np.all(diffs[:-1] >= -1e-9)
        assert diffs[-1] >= -1e-2

    def test_k_equal_one_returns_single_component(self, rng):
        matrix = rng.normal(size=(10, 1))
        resp, mixture = em_factorized(matrix, np.ones(10), (0,), Schema.continuous(1), 1)
        assert resp.shape == (10, 1)
        assert mixture.priors.tolist() == [1.0]
        assert mixture.ll_trace == []

    @pytest.mark.parametrize("k", [1, 2])
    def test_max_iter_below_one_raises(self, rng, k):
        matrix = rng.normal(size=(10, 1))
        with pytest.raises(ValueError, match="max_iter"):
            em_factorized(matrix, np.ones(10), (0,), Schema.continuous(1), k, max_iter=0)

    def test_collapsed_component_restarts(self, rng):
        # an init putting (almost) nothing in component 2 must not crash
        matrix = rng.normal(size=(20, 1))
        init = np.column_stack([np.ones(20) - 1e-12, np.full(20, 1e-12)])
        resp, mixture = em_factorized(
            matrix, np.ones(20), (0,), Schema.continuous(1), 2, init_membership=init
        )
        assert np.allclose(resp.sum(axis=1), 1.0)
        assert np.isfinite(mixture.priors).all()


def _latent_mixed(rng, n=400, n_cat=3, n_cont=3, k=2):
    # rows from k latent groups, so EM has structure to find; continuous
    # values and uneven weights leave no row equidistant from two centroids
    group = rng.integers(0, k, size=n)
    arities = rng.integers(2, 5, size=n_cat)
    cat = [
        np.where(rng.random(n) < 0.7, group % a, rng.integers(0, a, size=n)) for a in arities
    ]
    cont = [rng.normal(2.0 * group * (j + 1), 1.0 + 0.5 * j) for j in range(n_cont)]
    matrix = np.column_stack(cat + cont).astype(float)
    schema = Schema(
        [Variable("cat", int(a)) for a in arities] + [Variable("cont")] * n_cont
    )
    return matrix, schema


def _assert_matches_reference(matrix, weights, scope, schema, k, seed=0, **kwargs):
    got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, got_mix = em_factorized(matrix, weights, scope, schema, k, rng=got_rng, **kwargs)
    ref, ref_mix, ref_trace = reference_em_factorized(
        matrix, weights, scope, schema, k, rng=ref_rng, return_trace=True, **kwargs
    )
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12
    assert np.abs(got_mix.priors - ref_mix.priors).max() <= 1e-12
    assert len(got_mix.components) == len(ref_mix.components)
    for got_comp, ref_comp in zip(got_mix.components, ref_mix.components):
        assert [type(d) for d in got_comp] == [type(d) for d in ref_comp]
        for a, b in zip(got_comp, ref_comp):
            if isinstance(b, Gaussian):
                assert abs(a.mu - b.mu) <= 1e-12 and abs(a.sigma - b.sigma) <= 1e-12
            else:
                assert np.abs(np.subtract(a.probs, b.probs)).max() <= 1e-12
    assert len(got_mix.ll_trace) == len(ref_trace)
    assert np.allclose(got_mix.ll_trace, ref_trace, rtol=1e-12, atol=0.0)
    return got, got_mix


class TestEmFactorizedMatchesLoopReference:
    @pytest.mark.parametrize(
        "case", ["mixed", "categorical", "continuous", "uniform_weights", "k3", "init"]
    )
    def test_matrix_steps_match_one_fit_per_leaf(self, rng, case):
        k = 3 if case == "k3" else 2
        matrix, schema = _latent_mixed(rng, k=k)
        weights = rng.uniform(0.05, 3.0, size=matrix.shape[0])
        if case == "uniform_weights":
            weights = np.ones(matrix.shape[0])
        scope = {"categorical": (2, 0, 1), "continuous": (3, 4, 5)}.get(case, (0, 3, 1, 4, 2, 5))
        init = rng.dirichlet((2.0, 2.0), size=matrix.shape[0]) if case == "init" else None
        for seed in range(3):
            _assert_matches_reference(
                matrix, weights, scope, schema, k, seed=seed, init_membership=init
            )

    def test_exact_fits_with_zero_pseudo_count(self, rng):
        # alpha = 0 leaves levels without weight at probability 0 (log -inf)
        matrix = rng.integers(0, 2, size=(300, 4)).astype(float)
        matrix[:150, :2] = 1.0 - matrix[:150, :2]
        matrix[:150, 3] = 0.0
        weights = rng.uniform(0.5, 2.0, size=300)
        init = np.zeros((300, 2))
        init[:150, 0] = init[150:, 1] = 1.0
        resp, mixture = _assert_matches_reference(
            matrix, weights, (0, 1, 2, 3), Schema.binary(4), 2, alpha=0.0, init_membership=init
        )
        assert 0.0 in [p for comp in mixture.components for p in comp[3].probs]

    def test_collapsed_prior_restarts_from_heaviest_row(self, rng):
        matrix, schema = _latent_mixed(rng, n=60)
        weights = rng.uniform(0.5, 1.5, size=60)
        init = np.column_stack([np.ones(60) - 1e-12, np.full(60, 1e-12)])
        _, mixture = _assert_matches_reference(
            matrix, weights, tuple(range(6)), schema, 2, init_membership=init, max_iter=1
        )
        heaviest = matrix[int(np.argmax(weights))]
        assert [d.mu for d in mixture.components[1][3:]] == heaviest[3:].tolist()
        _assert_matches_reference(matrix, weights, tuple(range(6)), schema, 2, init_membership=init)

    def test_every_row_share_below_drop_threshold_restarts(self, rng):
        # the prior, 5e-7, is above COLLAPSE_TOL, but no single row's share
        # reaches EPSILON_W, so the component keeps no row
        matrix, schema = _latent_mixed(rng, n=60)
        weights = np.ones(60)
        weights[17] = 1.2
        init = np.column_stack([np.ones(60) - 5e-7, np.full(60, 5e-7)])
        assert 5e-7 < estimators.EPSILON_W and 5e-7 > clustering.COLLAPSE_TOL
        _, mixture = _assert_matches_reference(
            matrix, weights, tuple(range(6)), schema, 2, init_membership=init, max_iter=1
        )
        assert [d.mu for d in mixture.components[1][3:]] == matrix[17, 3:].tolist()
        assert {d.sigma for d in mixture.components[1][3:]} == {SIGMA_FLOOR}
        _assert_matches_reference(matrix, weights, tuple(range(6)), schema, 2, init_membership=init)

    def test_component_keeping_one_row_gets_SIGMA_FLOOR(self, rng):
        matrix, schema = _latent_mixed(rng, n=60)
        weights = rng.uniform(0.5, 1.5, size=60)
        init = np.column_stack([np.ones(60) - 1e-9, np.full(60, 1e-9)])
        init[5] = (0.5, 0.5)
        _, mixture = _assert_matches_reference(
            matrix, weights, tuple(range(6)), schema, 2, init_membership=init, max_iter=1
        )
        assert [d.mu for d in mixture.components[1][3:]] == pytest.approx(matrix[5, 3:].tolist())
        assert {d.sigma for d in mixture.components[1][3:]} == {SIGMA_FLOOR}
        _assert_matches_reference(matrix, weights, tuple(range(6)), schema, 2, init_membership=init)

    def test_constant_continuous_column(self, rng):
        matrix, schema = _latent_mixed(rng)
        matrix[:, 4] = 3.25
        weights = rng.uniform(0.05, 3.0, size=matrix.shape[0])
        _, mixture = _assert_matches_reference(matrix, weights, tuple(range(6)), schema, 2)
        assert [comp[4].sigma for comp in mixture.components] == [SIGMA_FLOOR] * 2

    def test_iterations_make_no_per_leaf_calls(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-leaf fit inside the EM iterations")

        for name in ("fit_multinomial", "fit_gaussian", "_clean", "leaf_log_pdf"):
            monkeypatch.setattr(estimators, name, forbidden)
        leaf_evals = []
        leaf_log_pdf = clustering.leaf_log_pdf

        def counted(dist, x):
            leaf_evals.append((dist, x))
            return leaf_log_pdf(dist, x)

        monkeypatch.setattr(clustering, "leaf_log_pdf", counted)
        matrix, schema = _latent_mixed(rng)
        resp, mixture = em_factorized(
            matrix, np.ones(matrix.shape[0]), tuple(range(6)), schema, 2, rng=rng
        )
        assert len(mixture.ll_trace) > 1
        # only the membership pass after the loop evaluates leaves one by one:
        # K * |scope| calls, whatever the number of iterations, in component
        # and scope order; a categorical leaf goes in as its component's slice
        # of one array of log probabilities, at the column's int64 codes
        assert len(leaf_evals) == 2 * 6
        expected = [(v, dist) for comp in mixture.components for v, dist in enumerate(comp)]
        tables = set()
        for (got, x), (v, dist) in zip(leaf_evals, expected):
            assert np.array_equal(x, matrix[:, v])
            if schema.is_cat(v):
                assert type(dist) is Multinomial and type(got) is np.ndarray
                assert x.dtype == np.int64
                assert got.shape == (len(dist.probs),)
                assert np.array_equal(got, np.log(np.asarray(dist.probs)))
                assert got.base is not None
                tables.add(id(got.base))
            else:
                assert type(dist) is Gaussian and got == dist
        assert len(tables) == 1
        assert np.allclose(resp.sum(axis=1), 1.0)

    @pytest.mark.parametrize("code", ["negative", "arity", "fraction", "nan"])
    def test_categorical_code_out_of_range_raises(self, rng, code):
        # an arity code would land in the next variable's one-hot slot
        matrix, schema = _latent_mixed(rng)
        matrix[7, 1] = {"negative": -1.0, "arity": schema[1].arity, "fraction": 0.5,
                        "nan": np.nan}[code]
        with pytest.raises(ValueError, match="out of range"):
            em_factorized(matrix, np.ones(matrix.shape[0]), tuple(range(6)), schema, 2, rng=rng)


class TestHarden:
    def test_argmax_one_hot(self):
        out = harden([[0.6, 0.4], [0.1, 0.9]])
        assert out.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_tie_breaks_to_lowest_index(self):
        # second row keeps cluster 1 alive so the tie row is observable
        out = harden([[0.5, 0.5], [0.2, 0.8]])
        assert out.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_empty_cluster_dropped(self):
        out = harden([[0.6, 0.4], [0.7, 0.3]])
        assert out.shape == (2, 1)

    def test_commutes_with_column_permutation(self, rng):
        resp = rng.dirichlet(np.ones(3), size=40)
        # keep argmaxes unambiguous under permutation
        resp = np.round(resp, 3) + np.arange(3)[None, :] * 1e-6
        resp /= resp.sum(axis=1, keepdims=True)
        perm = np.array([2, 0, 1])
        a = harden(resp)[:, np.argsort(np.argsort(perm))]
        b = harden(resp[:, perm])
        # compare as assignments: the winning cluster must be the same
        assert np.array_equal(np.argmax(a, axis=1), np.argmax(b, axis=1))
