"""Tests of the benchmark itself: generators, tracer and output checks.

Run with ``python -m pytest -q bench/tests``.
"""

import contextlib
import io
import json
import threading
from pathlib import Path

import numpy as np
import pytest

import checks
import datagen
import spans
import workloads
from softpc import cli, datasets, learner
from softpc.circuit import Circuit, SumNode
from softpc.learner import Hyperparams, WeightedDataset
from softpc.schema import Schema

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _binary(n, seed, tag="soft-binary"):
    return datagen.binary_rows(n, datagen.stream(tag, seed))


def _learned(n=400, seed=0, soft=False):
    rows = _binary(n, seed)
    hp = Hyperparams(p_threshold=0.01, alpha=0.01, clusterer="kmeans", seed=seed)
    fn = learner.soft_learn if soft else learner.learn_spn
    return fn(WeightedDataset(rows, None, Schema.binary(datagen.N_BINARY_VARS)), hp), rows


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generators_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    for seed in (0, 7):
        assert _binary(500, seed).tobytes() == _binary(500, seed).tobytes()
        a, _ = datagen.mixed_rows(500, datagen.stream("grid-mixed", seed))
        b, _ = datagen.mixed_rows(500, datagen.stream("grid-mixed", seed))
        assert a.tobytes() == b.tobytes()
    assert _binary(500, 0).tobytes() != _binary(500, 1).tobytes()
    assert _binary(500, 0, "soft-binary").tobytes() != _binary(500, 0, "infer-a").tobytes()

    outputs = []
    for seed, copy in ((3, "a"), (3, "b"), (4, "c")):
        d = tmp_path / copy
        d.mkdir()
        rows = _binary(300, seed)
        datagen.write_discrete_triple("set", d, *datagen.split(rows, (200, 50, 50)))
        matrix, _ = datagen.mixed_rows(300, datagen.stream("grid-mixed", seed))
        datagen.write_mixed_csv("mixed", d, matrix)
        outputs.append(_files(d))
    assert outputs[0] == outputs[1]
    assert outputs[0]["mixed.csv"] != outputs[2]["mixed.csv"]
    assert outputs[0]["set.train.data"] != outputs[2]["set.train.data"]


def test_written_files_load_back_to_the_generated_rows(tmp_path):
    rows = _binary(300, 5)
    datagen.write_discrete_triple("set", tmp_path, *datagen.split(rows, (200, 50, 50)))
    bundle = datasets.load_discrete("set", tmp_path)
    assert np.array_equal(np.vstack([bundle.train, bundle.valid, bundle.test]), rows)

    matrix, arities = datagen.mixed_rows(2000, datagen.stream("grid-mixed", 5))
    datagen.write_mixed_csv("mixed", tmp_path, matrix)
    bundle = datasets.load_mixed_csv(tmp_path / "mixed.csv", tmp_path / "mixed.schema")
    loaded = np.vstack([bundle.train, bundle.valid, bundle.test])
    assert sorted(loaded[:, 0]) == sorted(matrix[:, 0])
    assert [v.arity for v in bundle.schema][datagen.N_CONT:] == list(arities)


def _tiny_grid_argv(directory, threads):
    return ["--data-dir", str(directory), "--seed", "1", "--threads", str(threads),
            "grid", "--data", "mixed", "--method", "learnspn", "--clusterer", "em",
            "--p", "0.01", "--alpha", "0.01", "--reps", "2"]


def _without_seconds(table):
    return [line.rsplit("\t", 1)[0] for line in table.splitlines() if not line.startswith("# best")]


def test_traced_run_matches_untraced_and_restores_every_function(tmp_path):
    (plain, plain_trace), rows = _learned(soft=True)
    matrix, _ = datagen.mixed_rows(400, datagen.stream("grid-mixed", 2))
    datagen.write_mixed_csv("mixed", tmp_path, matrix)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(_tiny_grid_argv(tmp_path, 2)) == 0
    plain_table = out.getvalue()

    tracer = spans.Tracer()
    patched = tracer.install()
    try:
        originals = {(owner, attr): original for owner, attr, original in patched}
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in originals.items())
        (traced, traced_trace), _ = _learned(soft=True)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(_tiny_grid_argv(tmp_path, 2)) == 0
        traced.log_density(rows)
        traced.log_marginal([None] * datagen.N_BINARY_VARS)
        Circuit.from_json(traced.to_json())
        traced.sample(np.random.default_rng(0), 5)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for (owner, attr), original in originals.items())
    assert {f"{getattr(o, '__name__', o)}.{a}" for o, a in originals} >= {
        "softpc.circuit.leaf_log_pdf", "softpc.clustering.leaf_log_pdf", "softpc.cli.main",
        "Circuit.from_json", "softpc.learner.soft_learn", "softpc.independence.partition_scope"}

    assert traced == plain
    assert [s.step_kind for s in traced_trace.steps] == [s.step_kind for s in plain_trace.steps]
    assert _without_seconds(out.getvalue()) == _without_seconds(plain_table)

    metrics = spans.layer_metrics(tracer.spans)
    computed = set(metrics) | {f"circuit.{k}" for k in checks.structure(traced)} | {
        "trace.overhead_frac"}
    assert computed == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["clustering.rows_per_distinct"] > 1.0
    assert metrics["clustering.em_iters"] > 0
    assert metrics["estimators.leaf_eval_calls"] > 0
    assert metrics["circuit.evals"] >= 2
    assert metrics["circuit.leaf_s"] > 0
    assert metrics["datasets.rows"] == 400
    assert 0.0 < metrics["cli.thread_busy_frac"] <= 1.0
    assert metrics["learner.sum_steps"] > 0
    learns = [s for s in tracer.spans if s.name == "learner.learn"]
    assert len({s.thread for s in learns}) >= 2
    main = threading.main_thread().ident
    assert all(s.parent is not None for s in learns if s.thread != main)


def test_self_time_subtracts_children_and_probes():
    tracer = spans.Tracer()
    parent = spans.Span(0, "learner.learn", None, 1)
    parent.t0, parent.t1 = 0.0, 10.0
    child = spans.Span(1, "independence.partition_scope", 0, 1)
    child.t0, child.t1, child.excluded = 2.0, 6.0, 1.0
    child.info = {"rows": 10, "distinct": 5, "scope": 2, "groups": 2}
    other = spans.Span(2, "independence.weighted_chi2", 1, 1)
    other.t0, other.t1 = 3.0, 4.0
    tracer.spans = [parent, child, other]
    m = spans.layer_metrics(tracer.spans)
    assert m["learner.self_s"] == pytest.approx(6.0)
    assert m["independence.self_s"] == pytest.approx(2.0 + 1.0)
    assert m["independence.chi2_s"] == pytest.approx(1.0)
    assert m["independence.rows_per_distinct"] == pytest.approx(2.0)
    assert m["independence.split_rate"] == pytest.approx(1.0)


def _perturbed(circ):
    nodes = list(circ.nodes)
    i = next(i for i, n in enumerate(nodes) if isinstance(n, SumNode))
    w = list(nodes[i].weights)
    w[0] += 1e-3
    nodes[i] = SumNode(nodes[i].children, tuple(w))
    return Circuit(nodes, circ.root, circ.schema)


def test_output_checks_count_a_perturbed_sum_weight_as_failed():
    (circ, _), rows = _learned()
    rng = np.random.default_rng(0)
    ledger = workloads.Ledger()
    ledger.check("good", checks.circuit_invariants, circ, rows, rng)
    assert (ledger.attempted, ledger.failed) == (1, 0)
    ledger.check("bad", checks.circuit_invariants, _perturbed(circ), rows, rng)
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_grid_check_counts_a_changed_ll_test_mean_as_failed(tmp_path):
    matrix, _ = datagen.mixed_rows(400, datagen.stream("grid-mixed", 3))
    datagen.write_mixed_csv("mixed", tmp_path, matrix)
    out = tmp_path / "results.tsv"
    argv = _tiny_grid_argv(tmp_path, 1)
    argv[argv.index("grid"):argv.index("grid")] = ["--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    text = out.read_text()
    header, row = text.splitlines()[1:3]
    reference = dict(zip(header.split("\t"), row.split("\t")))

    ledger = workloads.Ledger()
    ledger.check("grid", checks.grid_table, code, text, [reference])
    assert ledger.failed == 0
    changed = dict(reference, ll_test_mean=f"{float(reference['ll_test_mean']) + 1e-3:.6g}")
    ledger.check("grid", checks.grid_table, code, text, [changed])
    ledger.check("grid", checks.grid_table, 4, text, [reference])
    ledger.check("grid", checks.grid_table, code, text.replace("v1", "v2", 1), [reference])
    assert (ledger.attempted, ledger.failed) == (4, 3)


def test_sample_check_rejects_a_flipped_variable():
    (circ, _), rows = _learned(n=600)
    good = circ.sample(np.random.default_rng(1), 2000)
    assert checks.sample_statistics(circ, good) == []
    skewed = int(np.argmax(np.abs(good.mean(axis=0) - 0.5)))
    flipped = good.copy()
    flipped[:, skewed] = 1.0 - flipped[:, skewed]
    assert checks.sample_statistics(circ, flipped)


def test_fingerprint_mismatch_is_reported():
    (circ, trace), rows = _learned()
    fp = checks.fingerprint(circ, trace, rows, rows)
    assert checks.compare_fingerprint(fp, fp) == []
    assert checks.compare_fingerprint(dict(fp, test_ll=fp["test_ll"] + 1e-6), fp)
    assert checks.compare_fingerprint(dict(fp, nodes=fp["nodes"] + 1), fp)
    assert checks.compare_fingerprint(dict(fp, sha256="0"), fp) == []
