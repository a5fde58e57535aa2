import numpy as np
import pytest

from softpc import toy
from softpc.analysis import capped_ll_trace, factorized_circuit, split_circuit
from softpc.learner import Hyperparams, WeightedDataset, learn_spn, soft_learn
from softpc.schema import Schema

from conftest import pinned_data


class TestCappedLLTrace:
    @pytest.mark.parametrize("kind", ["binary", "mixed"])
    @pytest.mark.parametrize("clusterer", ["em", "kmeans"])
    @pytest.mark.parametrize("learn, soft", [(learn_spn, False), (soft_learn, True)])
    def test_runs_from_factorized_to_learned_ll(self, learn, soft, clusterer, kind):
        matrix, schema = pinned_data(kind)
        data = WeightedDataset(matrix, None, schema)
        hp = Hyperparams(clusterer=clusterer)
        circuit, trace = learn(data, hp)
        lls = capped_ll_trace(data, hp, soft)
        assert len(lls) == len(trace.steps)
        # every pinned learn opens with a product, whose cap is the factorized circuit
        assert trace.steps[0].step_kind == "product"
        assert lls[0] == pytest.approx(factorized_circuit(data, hp).log_density(matrix).mean(), abs=1e-9)
        assert lls[-1] == pytest.approx(circuit.log_density(matrix).mean(), abs=1e-9)

    @pytest.mark.parametrize("learn, soft", [(learn_spn, False), (soft_learn, True)])
    def test_first_split_passes_through(self, learn, soft):
        matrix = toy.generate(200, np.random.default_rng(3))
        data = WeightedDataset(matrix, None, Schema.continuous(2))
        hp = Hyperparams(p_threshold=0.001)
        membership = toy.adversarial_membership(matrix, data.schema, soft)
        circuit, trace = learn(data, hp, first_split=membership)
        lls = capped_ll_trace(data, hp, soft, first_split=membership)
        assert trace.steps[0].step_kind == "sum"
        # the learner's first step and split_circuit take the split by one rule
        assert lls[0] == split_circuit(data, membership, hp).log_density(matrix).mean()
        assert lls[-1] == pytest.approx(circuit.log_density(matrix).mean(), abs=1e-9)
        assert lls != capped_ll_trace(data, hp, soft)

    def test_trace_snapshot_at_product_root_is_factorized_ll(self, rng):
        # capping right after the first (product) step leaves a fully
        # factorized model, so the capped LL must match it
        matrix = rng.integers(0, 2, size=(500, 3)).astype(float)
        data = WeightedDataset(matrix, None, Schema.binary(3))
        hp = Hyperparams(alpha=0.0)
        _, trace = learn_spn(data, hp)
        base = factorized_circuit(data, hp).log_density(matrix).mean()
        assert trace.steps[0].step_kind in ("product", "factorize")
        assert capped_ll_trace(data, hp, soft=False)[0] == pytest.approx(base, abs=1e-9)

    def test_pinned_capped_ll_trace(self):
        matrix, schema = pinned_data("binary")
        data = WeightedDataset(matrix, None, schema)
        hp = Hyperparams(clusterer="kmeans")
        circuit, trace = learn_spn(data, hp)
        assert circuit.n_nodes == 24
        assert "".join(s.step_kind[0] for s in trace.steps) == "psplllllplspllspllflll"
        # the capped LL changes only at sum steps, and ends at the learned LL
        lls = capped_ll_trace(data, hp, soft=False)
        distinct = [ll for i, ll in enumerate(lls) if i == 0 or ll != lls[i - 1]]
        expected = [-4.049936056116659, -3.840289834335433, -3.8802226555259125, -3.8369658396974553]
        assert distinct == pytest.approx(expected, abs=1e-9)
        assert [s.effective_mass for s in trace.steps if s.step_kind == "sum"] == [400.0, 210.0, 99.0]


class TestSplitCircuit:
    def test_split_the_learner_would_not_take_is_factorized(self):
        # one row of 1200 gives 1.1e-6 of its weight to a second cluster: a
        # share above EPSILON_W, so the cluster is kept, but the first holds
        # the whole mass to within 1e-9, so the learner factorizes
        matrix = toy.generate(600, np.random.default_rng(0))
        data = WeightedDataset(matrix, None, Schema.continuous(2))
        membership = np.zeros((1200, 2))
        membership[:, 0] = 1.0
        membership[0] = (1.0 - 1.1e-6, 1.1e-6)
        hp = Hyperparams()
        split = split_circuit(data, membership, hp)
        assert split.n_nodes == 3
        assert split.to_json() == factorized_circuit(data, hp).to_json()
