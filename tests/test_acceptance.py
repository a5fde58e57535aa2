"""Acceptance suite: one test per shipped claim, one printed verdict line each.

Criteria that need the twenty canonical discrete benchmark datasets (which
this repository does not ship) skip with an explicit message unless the
datasets are present under ``$SOFTPC_DATA_DIR`` (default: ./datasets); see
README.md for the expected directory layout.  Run with ``-s`` to see the
verdict lines.
"""

import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.special import chdtrc
from scipy.stats import chi2_contingency

from softpc import cli
from softpc import toy
from softpc.circuit import Circuit
from softpc.datasets import DISCRETE_MANIFEST, check_manifest, load_discrete
from softpc.estimators import fit_gaussian, fit_multinomial
from softpc.independence import weighted_chi2
from softpc.learner import Hyperparams, WeightedDataset, factorized_circuit, learn_spn, soft_learn
from softpc.schema import Schema

from conftest import (
    all_binary_rows,
    binary_mixture,
    mixed_mixture,
    singleton_split_membership,
    split_circuit,
)

DATA_DIR = Path(os.environ.get("SOFTPC_DATA_DIR", "datasets"))

NEEDS_DATA = "canonical benchmark datasets not present under {} (set SOFTPC_DATA_DIR)"


def require_datasets(*names):
    for name in names:
        if not (DATA_DIR / f"{name}.train.data").exists():
            pytest.skip(NEEDS_DATA.format(DATA_DIR))


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException as exc:
        verdict = "SKIP" if exc.__class__.__name__ == "Skipped" else "FAIL"
        print(f"[criterion {num:02d}] {verdict} - {desc}")
        raise
    print(f"[criterion {num:02d}] PASS - {desc}")


def mean_test_ll(bundle, method, hp_base, reps):
    fn = soft_learn if method == "softlearn" else learn_spn
    data = WeightedDataset(bundle.train, None, bundle.schema)
    lls = []
    for rep in range(reps):
        hp = Hyperparams(**{**hp_base, "seed": hp_base.get("seed", 0) + rep})
        circuit, _ = fn(data, hp)
        lls.append(float(np.mean(circuit.log_density(bundle.test))))
    return float(np.mean(lls))


def best_grid_test_ll(bundle, method, reps=9):
    """Full clusterer x p x alpha grid; model selected on validation LL."""
    fn = soft_learn if method == "softlearn" else learn_spn
    data = WeightedDataset(bundle.train, None, bundle.schema)
    best = None
    for clusterer in cli.CLUSTERERS:
        for p in cli.P_GRID:
            for alpha in cli.ALPHA_GRID:
                valids, tests = [], []
                for rep in range(reps):
                    hp = Hyperparams(
                        p_threshold=p, alpha=alpha, clusterer=clusterer, seed=rep
                    )
                    circuit, _ = fn(data, hp)
                    valids.append(float(np.mean(circuit.log_density(bundle.valid))))
                    tests.append(float(np.mean(circuit.log_density(bundle.test))))
                cell = (float(np.mean(valids)), float(np.mean(tests)))
                if best is None or cell[0] > best[0]:
                    best = cell
    return best[1]


def test_criterion_01_nltcs_benchmark_lls():
    with criterion(1, "NLTCS mean test LL: softlearn/kmeans >= -6.05, "
                      "learnspn/em >= -6.08 (p=0.01, alpha=0.01, 9 reps)"):
        require_datasets("nltcs")
        bundle = load_discrete("nltcs", DATA_DIR)
        soft = mean_test_ll(
            bundle, "softlearn",
            dict(p_threshold=0.01, alpha=0.01, clusterer="kmeans"), reps=9,
        )
        hard = mean_test_ll(
            bundle, "learnspn",
            dict(p_threshold=0.01, alpha=0.01, clusterer="em"), reps=9,
        )
        assert soft >= -6.05, f"softlearn mean test LL {soft:.4f} < -6.05"
        assert hard >= -6.08, f"learnspn mean test LL {hard:.4f} < -6.08"


def test_criterion_02_soft_beats_hard_on_small_benchmarks():
    with criterion(2, "best-grid test LL: softlearn >= learnspn on NLTCS and Plants"):
        require_datasets("nltcs", "plants")
        for name in ("nltcs", "plants"):
            bundle = load_discrete(name, DATA_DIR)
            soft = best_grid_test_ll(bundle, "softlearn")
            hard = best_grid_test_ll(bundle, "learnspn")
            assert soft >= hard, f"{name}: softlearn {soft:.4f} < learnspn {hard:.4f}"


def test_criterion_03_toy_bad_split_recovery():
    with criterion(3, "adversarial toy split: softlearn X-mean deviation < 0.15, "
                      "learnspn > 0.3, Y-means within 0.1 of +-2 (5 seeds)"):
        soft_devs, hard_devs = [], []
        for seed in range(5):
            soft = toy.run_toy(1000, adversarial=True, method="softlearn", seed=seed)
            hard = toy.run_toy(1000, adversarial=True, method="learnspn", seed=seed)
            soft_devs.append(toy.x_mean_deviation(soft))
            hard_devs.append(toy.x_mean_deviation(hard))
            for result in (soft, hard):
                for mu, _ in result.y_leaves:
                    assert abs(abs(mu) - 2.0) < 0.1, (
                        f"seed {seed}: {result.method} Y-leaf mean {mu:.3f}"
                    )
        assert float(np.mean(soft_devs)) < 0.15, f"softlearn deviations {soft_devs}"
        assert float(np.mean(hard_devs)) > 0.3, f"learnspn deviations {hard_devs}"


def test_criterion_04_synthetic_quality_drop():
    with criterion(4, "NLTCS synthetic-retrain LL drop in [0, 0.15] for both "
                      "methods (3 reps)"):
        require_datasets("nltcs")
        bundle = load_discrete("nltcs", DATA_DIR)
        data = WeightedDataset(bundle.train, None, bundle.schema)
        for method, fn in (("softlearn", soft_learn), ("learnspn", learn_spn)):
            originals, synthetics = [], []
            for rep in range(3):
                hp = Hyperparams(p_threshold=0.01, alpha=0.01, seed=rep)
                circuit1, _ = fn(data, hp)
                rng = np.random.default_rng(rep)
                synth = np.rint(circuit1.sample(rng, bundle.train.shape[0]))
                circuit2, _ = fn(WeightedDataset(synth, None, bundle.schema), hp)
                originals.append(float(np.mean(circuit1.log_density(bundle.test))))
                synthetics.append(float(np.mean(circuit2.log_density(bundle.test))))
            drop = float(np.mean(originals)) - float(np.mean(synthetics))
            assert 0.0 <= drop <= 0.15, f"{method}: drop {drop:.4f} outside [0, 0.15]"


@pytest.mark.parametrize("learn", [
    learn_spn,
    pytest.param(soft_learn, marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP items 12 and 3: soft_learn's synthetic drop is 1.015 nats/row "
        "(0.025, 0.028 and 2.992 at seeds 0, 1 and 3), outside [0, 0.15]")),
], ids=["learn_spn", "soft_learn"])
def test_criterion_04_analogue_synthetic_quality_drop(learn):
    """Criterion 04's protocol on generated rows: at each of the seeds 0, 1
    and 3, learn on the 2000 training rows of ``binary_mixture(seed)`` with
    default ``Hyperparams`` (EM) at that seed, sample as many rows, learn
    again on them, and score both circuits on the seed's 1000 test rows.
    Measured drop of the mean test LL: 0.050 for ``learn_spn`` (0.046,
    0.011 and 0.092); both methods together take under 2 s on a 2-core
    machine."""
    with criterion(4, f"(synthetic analogue) {learn.__name__}/em retrain LL drop "
                      "in [0, 0.15] (3 seeds)"):
        originals, synthetics = [], []
        for seed in (0, 1, 3):
            train, test, _ = binary_mixture(seed)
            schema = Schema.binary(train.shape[1])
            hp = Hyperparams(seed=seed)
            circuit1, _ = learn(WeightedDataset(train, None, schema), hp)
            synth = np.rint(circuit1.sample(np.random.default_rng(seed), train.shape[0]))
            circuit2, _ = learn(WeightedDataset(synth, None, schema), hp)
            originals.append(float(np.mean(circuit1.log_density(test))))
            synthetics.append(float(np.mean(circuit2.log_density(test))))
        drop = float(np.mean(originals)) - float(np.mean(synthetics))
        assert 0.0 <= drop <= 0.15, f"{learn.__name__}: drop {drop:.4f} outside [0, 0.15]"


def test_criterion_05_learned_circuit_normalization():
    with criterion(5, "100 circuits learned on random <=8-var binary data are "
                      "normalized within 1e-9 (exhaustive enumeration)"):
        rng = np.random.default_rng(505)
        for i in range(100):
            n_vars = int(rng.integers(2, 9))
            n = int(rng.integers(30, 201))
            # latent two-group structure so sums and products both appear
            latent = rng.integers(0, 2, size=n)
            matrix = (
                (latent[:, None] + rng.random((n, n_vars)) < rng.uniform(0.5, 1.5))
            ).astype(float) % 2
            data = WeightedDataset(matrix, None, Schema.binary(n_vars))
            hp = Hyperparams(
                p_threshold=float(rng.choice((0.01, 0.1))),
                alpha=float(rng.choice((0.01, 0.1))),
                min_instances=20,
                clusterer=("em", "kmeans")[i % 2],
                seed=i,
            )
            fn = (soft_learn, learn_spn)[(i // 2) % 2]
            circuit, _ = fn(data, hp)
            assert circuit.validate() == []
            total = np.exp(circuit.log_density(all_binary_rows(n_vars))).sum()
            assert abs(total - 1.0) <= 1e-9, f"circuit {i}: total {total!r}"


def test_criterion_06_estimator_equivalences():
    with criterion(6, "1000 random columns: unit-weight fits match classical "
                      "MLE within 1e-12; duplication: multinomial exact, "
                      "Gaussian mean and same-init EM within 1e-9"):
        from softpc.clustering import em_factorized

        rng = np.random.default_rng(606)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            cont = rng.normal(0, 3, size=n)
            ones = np.ones(n)
            g = fit_gaussian(cont, ones)
            assert abs(g.mu - cont.mean()) <= 1e-12
            if n >= 2 and cont.std(ddof=1) > 1e-3:
                assert abs(g.sigma - cont.std(ddof=1)) <= 1e-12

            arity = int(rng.integers(2, 5))
            cat = rng.integers(0, arity, size=n)
            m = fit_multinomial(cat, ones, arity, alpha=0.0)
            freq = np.bincount(cat, minlength=arity) / n
            assert np.abs(np.asarray(m.probs) - freq).max() <= 1e-12

            counts = rng.integers(1, 5, size=n)
            m_w = fit_multinomial(cat, counts.astype(float), arity, alpha=0.0)
            m_d = fit_multinomial(np.repeat(cat, counts), np.ones(counts.sum()),
                                  arity, alpha=0.0)
            assert m_w.probs == m_d.probs

            g_w = fit_gaussian(cont, counts.astype(float))
            g_d = fit_gaussian(np.repeat(cont, counts), np.ones(counts.sum()))
            assert abs(g_w.mu - g_d.mu) <= 1e-9

        # EM duplication with a shared init (one full update: the exact case)
        matrix = rng.integers(0, 2, size=(40, 3)).astype(float)
        counts = rng.integers(1, 4, size=40)
        init = rng.dirichlet((5.0, 5.0), size=40)
        schema = Schema.binary(3)
        _, mix_w = em_factorized(
            matrix, counts.astype(float), (0, 1, 2), schema, 2,
            init_membership=init, max_iter=1,
        )
        _, mix_d = em_factorized(
            np.repeat(matrix, counts, axis=0), np.ones(counts.sum()),
            (0, 1, 2), schema, 2, init_membership=np.repeat(init, counts, axis=0),
            max_iter=1,
        )
        assert np.abs(mix_w.priors - mix_d.priors).max() <= 1e-9
        for cw, cd in zip(mix_w.components, mix_d.components):
            for dw, dd in zip(cw, cd):
                assert np.abs(np.asarray(dw.probs) - dd.probs).max() <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="the weighted Bessel denominator (S^2 - sum v^2)/S is a "
    "reliability-weight correction: integer weight w contributes w^2, a "
    "w-fold repeated row contributes w, so the duplicated-column sigma "
    "deviates by O(1/n) rather than 1e-9",
)
def test_criterion_06_footnote_gaussian_sigma_duplication():
    rng = np.random.default_rng(607)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        cont = rng.normal(0, 3, size=n)
        counts = rng.integers(1, 5, size=n)
        g_w = fit_gaussian(cont, counts.astype(float))
        g_d = fit_gaussian(np.repeat(cont, counts), np.ones(counts.sum()))
        assert abs(g_w.sigma - g_d.sigma) <= 1e-9


def test_criterion_07_alternative_pc_constructions():
    with criterion(7, "200 random binary datasets: equal soft split LL equals "
                      "factorized within 1e-9; each singleton-split child "
                      "beats the factorized fit on its own rows"):
        rng = np.random.default_rng(707)
        hp = Hyperparams(alpha=0.0)
        for _ in range(200):
            n = int(rng.integers(6, 64))
            n_vars = int(rng.integers(2, 7))
            matrix = rng.integers(0, 2, size=(n, n_vars)).astype(float)
            schema = Schema.binary(n_vars)
            data = WeightedDataset(matrix, None, schema)
            base_circuit = factorized_circuit(data, hp)
            base = base_circuit.log_density(matrix).mean()

            equal = np.full((n, 2), 0.5)
            split = split_circuit(data, equal, hp).log_density(matrix).mean()
            assert abs(split - base) <= 1e-9

            membership = singleton_split_membership(matrix, int(rng.integers(0, n)))
            for i in range(membership.shape[1]):
                part = matrix[membership[:, i] == 1.0]
                child = factorized_circuit(WeightedDataset(part, None, schema), hp)
                assert (
                    child.log_density(part).sum()
                    >= base_circuit.log_density(part).sum() - 1e-9
                )


def test_criterion_08_weighted_chi_square():
    with criterion(8, "1000 random tables: unit-weight chi-square matches the "
                      "classical Pearson within 1e-9; duplication exact; "
                      "tail(3.841, dof=1) in [0.049, 0.051]"):
        rng = np.random.default_rng(808)
        for _ in range(1000):
            r, c = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            n = int(rng.integers(40, 200))
            x = rng.integers(0, r, size=n)
            y = rng.integers(0, c, size=n)
            res = weighted_chi2(x, y, np.ones(n))
            table = np.zeros((r, c))
            np.add.at(table, (x, y), 1)
            table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
            if min(table.shape) <= 1:
                assert res.p_value == 1.0
            else:
                ref = chi2_contingency(table, correction=False)
                assert abs(res.stat - ref.statistic) <= 1e-9
                assert abs(res.p_value - ref.pvalue) <= 1e-9

            counts = rng.integers(1, 4, size=n)
            a = weighted_chi2(x, y, counts.astype(float))
            b = weighted_chi2(
                np.repeat(x, counts), np.repeat(y, counts), np.ones(counts.sum())
            )
            assert a.stat == b.stat and a.dof == b.dof

        assert 0.049 <= chdtrc(1, 3.841) <= 0.051


def test_criterion_09_dataset_manifest():
    with criterion(9, "loading the 20 canonical discrete datasets reproduces "
                      "every (vars, train, valid, test) manifest tuple"):
        require_datasets(*DISCRETE_MANIFEST)
        assert len(DISCRETE_MANIFEST) == 20
        for name in DISCRETE_MANIFEST:
            bundle = load_discrete(name, DATA_DIR)
            problems = check_manifest(bundle)
            assert problems == [], problems


def test_criterion_10_grid_thread_determinism(tmp_path, capsys):
    with criterion(10, "grid --data nltcs --seed 7: --threads 1 and --threads 8 "
                       "produce identical result tables (timing column aside)"):
        require_datasets("nltcs")
        tables = []
        for threads, name in ((1, "t1.tsv"), (8, "t8.tsv")):
            out = tmp_path / name
            code = cli.main(
                ["--data-dir", str(DATA_DIR), "--seed", "7", "--threads",
                 str(threads), "--out", str(out), "grid", "--data", "nltcs",
                 "--method", "softlearn"]
            )
            capsys.readouterr()
            assert code == 0
            tables.append(out.read_text())

        def strip_seconds(text):
            rows = []
            for line in text.strip().splitlines():
                cols = line.split("\t")
                rows.append("\t".join(c for i, c in enumerate(cols) if i != 9))
            return rows

        # wall-clock time is inherently run-dependent; every result column
        # must be byte-identical
        assert strip_seconds(tables[0]) == strip_seconds(tables[1])


def test_criterion_10_analogue_thread_determinism_synthetic(tmp_path, capsys):
    """Non-gated analogue of criterion 10 on a generated dataset, so the
    determinism property is exercised even without the benchmark files."""
    with criterion(10, "(synthetic analogue) grid --threads 1 vs 4 identical "
                       "result tables on a generated dataset"):
        rng = np.random.default_rng(1010)
        a = rng.integers(0, 2, size=900)
        matrix = np.column_stack(
            [a, (a + (rng.random(900) < 0.1)) % 2, rng.integers(0, 2, size=900)]
        )
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for part, sl in (("train", slice(0, 600)), ("valid", slice(600, 750)),
                         ("test", slice(750, 900))):
            (data_dir / f"gen.{part}.data").write_text(
                "\n".join(",".join(map(str, r)) for r in matrix[sl]) + "\n"
            )
        tables = []
        for threads, name in ((1, "t1.tsv"), (4, "t4.tsv")):
            out = tmp_path / name
            code = cli.main(
                ["--data-dir", str(data_dir), "--seed", "7", "--threads",
                 str(threads), "--out", str(out), "grid", "--data", "gen",
                 "--method", "softlearn", "--clusterer", "em", "--reps", "3"]
            )
            capsys.readouterr()
            assert code == 0
            tables.append(out.read_text())

        def strip_seconds(text):
            return [
                "\t".join(c for i, c in enumerate(line.split("\t")) if i != 9)
                for line in text.strip().splitlines()
            ]

        assert strip_seconds(tables[0]) == strip_seconds(tables[1])


# The generating mixture is a ground truth: on its rows, forward KL is a
# learner's test NLL minus the truth's, and reverse KL (sample quality) the
# mean of log q - log p over samples of the learned q.  Seeds 0, 1 and 3 of
# the soft-binary benchmark's rows, k-means as that benchmark learns, and
# 20000 samples per learned circuit.
TRUTH_SEEDS = (0, 1, 3)
TRUTH_SAMPLES = 20000


@pytest.fixture(scope="module")
def truth_gaps():
    """Per seed: the truth's test NLL and, per learner, its test NLL and its
    forward and reverse gaps to the truth."""
    gaps = {}
    for seed in TRUTH_SEEDS:
        train, test, truth = binary_mixture(seed)
        truth_nll = -float(np.mean(truth.log_density(test)))
        hp = Hyperparams(p_threshold=0.01, alpha=0.01, clusterer="kmeans", seed=seed)
        gaps[seed] = {"truth": truth_nll}
        for learn in (learn_spn, soft_learn):
            q, _ = learn(WeightedDataset(train, None, Schema.binary(16)), hp)
            nll = -float(np.mean(q.log_density(test)))
            samples = q.sample(np.random.default_rng(seed), TRUTH_SAMPLES)
            reverse = float(np.mean(q.log_density(samples) - truth.log_density(samples)))
            gaps[seed][learn.__name__] = (nll, nll - truth_nll, reverse)
    return gaps


def test_generating_mixture_is_a_valid_normalised_circuit():
    _, _, truth = binary_mixture(0)
    assert truth.n_nodes == 69 and truth.validate() == []
    assert abs(np.exp(truth.log_density(all_binary_rows(16))).sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("learner_name", ["learn_spn", "soft_learn"])
def test_generating_mixture_has_the_lowest_test_nll(truth_gaps, learner_name):
    for seed, gap in truth_gaps.items():
        assert gap["truth"] < gap[learner_name][0], seed


def test_learn_spn_gaps_to_the_truth_lie_in_their_bands(truth_gaps):
    """Measured at seeds 0, 1 and 3: forward 0.133, 0.109 and 0.164,
    reverse 0.156, 0.130 and 0.149 nats/row."""
    for seed, gap in truth_gaps.items():
        _, forward, reverse = gap["learn_spn"]
        assert 0.08 <= forward <= 0.20, (seed, forward)
        assert 0.10 <= reverse <= 0.19, (seed, reverse)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 12: at the default beta=4 soft k-means collapses and "
    "soft_learn's forward gap to the truth is 2.9-3.0 nats/row, learn_spn's 0.11-0.16",
)
def test_paper_claim_soft_learn_likelihoods_at_least_as_close_to_the_truth(truth_gaps):
    for seed, gap in truth_gaps.items():
        assert gap["soft_learn"][1] <= gap["learn_spn"][1], seed


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 12: at the default beta=4 soft_learn's reverse gap (its "
    "samples scored by the truth) is 3.3 nats/row, learn_spn's 0.13-0.16",
)
def test_paper_claim_soft_learn_samples_at_least_as_close_to_the_truth(truth_gaps):
    for seed, gap in truth_gaps.items():
        assert gap["soft_learn"][2] <= gap["learn_spn"][2], seed


# The same gaps on the grid-mixed benchmark's rows, by ROADMAP item 3's
# protocol: 1050 rows to train and 450 to test, default Hyperparams (EM),
# seeds 100, 101 and 102.
MIXED_TRUTH_SEEDS = (100, 101, 102)


@pytest.fixture(scope="module")
def mixed_truth_gaps():
    """As ``truth_gaps``, on mixed rows."""
    gaps = {}
    for seed in MIXED_TRUTH_SEEDS:
        train, test, truth = mixed_mixture(seed)
        truth_nll = -float(np.mean(truth.log_density(test)))
        gaps[seed] = {"truth": truth_nll}
        for learn in (learn_spn, soft_learn):
            q, _ = learn(WeightedDataset(train, None, truth.schema), Hyperparams())
            nll = -float(np.mean(q.log_density(test)))
            samples = q.sample(np.random.default_rng(seed), TRUTH_SAMPLES)
            reverse = float(np.mean(q.log_density(samples) - truth.log_density(samples)))
            gaps[seed][learn.__name__] = (nll, nll - truth_nll, reverse)
    return gaps


def test_mixed_generating_mixture_is_a_valid_normalised_circuit():
    _, _, truth = mixed_mixture(0)
    kinds = [type(node).__name__ for node in truth.nodes]
    assert [kinds.count(k) for k in ("LeafNode", "ProductNode", "SumNode")] == [96, 6, 1]
    assert truth.validate() == []
    assert abs(truth.log_marginal([None] * 16)) <= 1e-9


@pytest.mark.parametrize("learner_name", ["learn_spn", "soft_learn"])
def test_mixed_generating_mixture_has_the_lowest_test_nll(mixed_truth_gaps, learner_name):
    for seed, gap in mixed_truth_gaps.items():
        assert gap["truth"] < gap[learner_name][0], seed


def test_learn_spn_forward_gap_on_mixed_rows_lies_in_its_band(mixed_truth_gaps):
    """Measured at seeds 100, 101 and 102: 0.524, 0.616 and 0.385 nats/row."""
    for seed, gap in mixed_truth_gaps.items():
        forward = gap["learn_spn"][1]
        assert 0.30 <= forward <= 0.75, (seed, forward)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: EM starts from soft k-means at beta=4, which collapses, "
    "and soft_learn's forward gap on mixed rows is 4.4-4.7 nats/row, learn_spn's 0.39-0.62",
)
def test_paper_claim_soft_learn_likelihoods_at_least_as_close_to_the_mixed_truth(mixed_truth_gaps):
    for seed, gap in mixed_truth_gaps.items():
        assert gap["soft_learn"][1] <= gap["learn_spn"][1], seed


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: from the same collapsed EM start, soft_learn's reverse gap "
    "on mixed rows is 6.2-6.3 nats/row, learn_spn's 0.45-0.71",
)
def test_paper_claim_soft_learn_samples_at_least_as_close_to_the_mixed_truth(mixed_truth_gaps):
    for seed, gap in mixed_truth_gaps.items():
        assert gap["soft_learn"][2] <= gap["learn_spn"][2], seed
