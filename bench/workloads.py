"""The three benchmark workloads and the loop that measures them.

Each workload has a ``setup`` that writes and loads its inputs, an
optional ``prepare`` that learns fixture circuits, a ``step`` that is
the repeated, timed operation, and a ``finish`` that runs the output
checks and the inference pass and returns the end-to-end metrics.
Every time goes through ``clock.Clock`` (host-speed-normalised seconds).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import datagen
import spans
from clock import Clock
from softpc import cli, datasets, learner
from softpc.circuit import Circuit
from softpc.learner import Hyperparams, WeightedDataset
from softpc.schema import Schema

FINGERPRINT_SEED = 0
FINGERPRINT_FILE = Path(__file__).with_name("fingerprint.json")
FIXTURE_SEED = 0
FIXTURE_LEARNS = 3
SETUP_REPEATS = 3
N_QUERIES = 40
CHUNK_ROWS = 200
SAMPLE_CHUNKS = 10
JSON_TRIPS = 10
# calibration blocks on each side of an operation, by the operation's length
LONG_UNITS = 40
SHORT_UNITS = 2


class Ledger:
    """Counts attempted and failed operations; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, what: str, fn, *args) -> None:
        self.attempted += 1
        try:
            problems = fn(*args)
        except Exception as exc:  # noqa: BLE001 - an exception is a failed check
            problems = [repr(exc)]
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:5])


def partial_query(schema, row, rng):
    """Each variable marginalised with probability 1/2; an observed
    continuous variable is a point or a +-0.5 interval with equal odds."""
    q = []
    for v, var in enumerate(schema):
        if rng.random() < 0.5:
            q.append(None)
        elif var.kind == "cat":
            q.append(int(row[v]))
        elif rng.random() < 0.5:
            q.append((float(row[v]) - 0.5, float(row[v]) + 0.5))
        else:
            q.append(float(row[v]))
    return q


class Timings:
    """Per-operation timing samples, pooled over circuits and passes.

    Evaluation and serialisation times are scaled by the circuit's node
    count, because the learned structure, and with it the work per row,
    changes with the seed; sampling visits one induced tree per row, whose
    size is set by the variable count, so it is not scaled.
    """

    def __init__(self):
        self.density, self.query, self.sample, self.json = [], [], [], []

    def metrics(self) -> dict:
        med = statistics.median
        return {
            "log_density_node_rows_per_s": med(self.density),
            "marginal_node_queries_per_s": med(self.query),
            "sample_rows_per_s": med(self.sample),
            "json_roundtrip_us_per_node": med(self.json),
        }


def inference_pass(targets, rng, sample_rng, ledger, clock, timings, density=1,
                   queries=N_QUERIES, chunks=SAMPLE_CHUNKS, trips=JSON_TRIPS) -> dict:
    """One pass of every inference operation over ``targets``.

    ``targets`` is a list of ``(label, circuit, density_rows, query_rows)``;
    ``density_rows`` may be None to skip ``log_density`` for a circuit.
    The counts say how often each operation runs per circuit.  Returns
    ``{"density": {label: log densities}, "drawn": {label: samples}}``.
    """
    out = {"density": {}, "drawn": {}}
    for label, circuit, density_rows, query_rows in targets:
        nodes = circuit.n_nodes
        if density_rows is not None:
            for _ in range(density):
                result, s = clock.time(LONG_UNITS, circuit.log_density, density_rows)
                timings.density.append(len(density_rows) * nodes / s)
                # a copy: the result is a view that keeps the whole node-by-row table alive
                out["density"][label] = np.array(result)
                del result
            ledger.ops(density)

        picks = rng.integers(len(query_rows), size=queries)
        values = []
        for q in [partial_query(circuit.schema, query_rows[i], rng) for i in picks]:
            value, s = clock.time(SHORT_UNITS, circuit.log_marginal, q)
            values.append(value)
            timings.query.append(nodes / s)
        ledger.ops(queries)
        ledger.check("marginal queries", lambda: [] if all(map(math.isfinite, values))
                     else ["non-finite log_marginal"])

        drawn = []
        for _ in range(chunks):
            chunk, s = clock.time(SHORT_UNITS, circuit.sample, sample_rng, CHUNK_ROWS)
            drawn.append(chunk)
            timings.sample.append(len(chunk) / s)
        out["drawn"][label] = np.vstack(drawn)
        ledger.ops(chunks)

        for _ in range(trips):
            _, s = clock.time(SHORT_UNITS, lambda: Circuit.from_json(circuit.to_json()))
            timings.json.append(s / nodes * 1e6)
        ledger.ops(trips)
    return out


class Workload:
    """Shared state: the query and sampling streams, pooled timings, and
    the samples drawn from each circuit for the statistical check.

    ``step_s`` is the nominal length of one step; ``run`` derives the step
    count from it.  ``per_step`` holds the inference counts of the small
    pass that follows each step of a learning workload, so that inference
    timings are spread over the whole run.
    """

    step_s = 1.0
    per_step = {"density": 1, "queries": 5, "chunks": 2, "trips": 2}

    def __init__(self, seed, workdir, ledger, clock):
        self.seed, self.workdir, self.ledger, self.clock = seed, workdir, ledger, clock
        self.timings = Timings()
        self.queries = datagen.stream("queries", seed)
        self.sampler = datagen.stream("sample", seed)
        self.drawn = {}

    def prepare(self):
        """Work done once after set-up and before the steps."""

    def infer(self, targets, **counts) -> dict:
        out = inference_pass(targets, self.queries, self.sampler, self.ledger, self.clock,
                             self.timings, **counts)
        for label, rows in out["drawn"].items():
            self.drawn.setdefault(label, []).append(rows)
        return out

    def check_samples(self) -> None:
        for label, parts in self.drawn.items():
            self.ledger.check(f"{label} sample statistics", checks.sample_statistics,
                              self.fitted[label][0], np.vstack(parts))


def check_circuits(name, seed, ledger, fitted, write_fingerprint=False) -> None:
    """Invariants for every circuit, and the stored fingerprint on the default seed.

    ``fitted`` maps a label to ``(circuit, learn_trace, train, test)``.
    """
    rng = datagen.stream("checks", seed)
    defects = set()
    for label, (circuit, trace, train, test) in fitted.items():
        ledger.check(f"{name}/{label} invariants", checks.circuit_invariants, circuit, test, rng)
        defects.update(checks.known_defects(circuit))
    for defect in sorted(defects):
        print(f"known defect, not counted as a failure: {defect}")
    if seed != FINGERPRINT_SEED:
        return
    got = {label: checks.fingerprint(*entry) for label, entry in fitted.items()}
    stored = json.loads(FINGERPRINT_FILE.read_text()) if FINGERPRINT_FILE.exists() else {}
    if write_fingerprint:
        stored[name] = got
        FINGERPRINT_FILE.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        return
    want = stored.get(name, {})
    for label, fp in got.items():
        if label not in want:
            ledger.check(f"{name}/{label} fingerprint", lambda: ["no stored fingerprint"])
            continue
        ledger.check(f"{name}/{label} fingerprint", checks.compare_fingerprint, fp, want[label])
        if fp["sha256"] != want[label]["sha256"]:
            print(f"note: {name}/{label} model JSON hash differs from the stored one")


def _kmeans_hp(seed):
    return Hyperparams(p_threshold=0.01, alpha=0.01, clusterer="kmeans", seed=seed)


class SoftBinary(Workload):
    """``soft_learn`` with k-means on repeating binary rows; 2000 training
    rows keep one learn near two seconds, so a run times about ten."""

    name = "soft-binary"
    step_s = 2.0
    sizes = (2000, 1000)

    def setup(self):
        rows = datagen.binary_rows(sum(self.sizes), datagen.stream(self.name, self.seed))
        self.train, self.test = datagen.split(rows, self.sizes)
        self.schema = Schema.binary(datagen.N_BINARY_VARS)

    def step(self):
        data = WeightedDataset(self.train, None, self.schema)
        (circuit, trace), seconds = self.clock.time(LONG_UNITS, learner.soft_learn, data,
                                                    _kmeans_hp(self.seed))
        self.ledger.ops(1)
        self.fitted = {"soft": (circuit, trace, self.train, self.test)}
        self.infer([("soft", circuit, np.vstack([self.train, self.test]), self.test)],
                   **self.per_step)
        return {"learn_s": seconds, "output": (circuit, checks.step_counts(trace))}

    def main_circuit(self):
        return self.fitted["soft"][0]

    def finish(self, steps, write_fingerprint=False):
        outputs = [s["output"] for s in steps]
        self.ledger.check("repeated learns agree", lambda: [] if all(
            o == outputs[0] for o in outputs) else ["repeated soft_learn calls differ"])
        check_circuits(self.name, self.seed, self.ledger, self.fitted, write_fingerprint)
        self.check_samples()
        return {
            "learn_s": statistics.median(s["learn_s"] for s in steps),
            "test_nll": -float(np.mean(self.main_circuit().log_density(self.test))),
            **self.timings.metrics(),
        }


class GridMixed(Workload):
    """``bench-cli grid`` on several small mixed CSVs, one call per file.

    The structure EM learns on mixed rows, and with it the learning time,
    changes with the data sample; summing over several files and
    repetitions keeps the seed-to-seed spread of ``learn_s`` small.  The
    reference cells, learned in one thread through the library API, are
    the circuits the inference timings use.
    """

    name = "grid-mixed"
    step_s = 5.0
    files = 4
    rows = 1500
    threads = 2
    reps = 2

    def __init__(self, *args):
        super().__init__(*args)
        self.names = [f"mixed{i}" for i in range(self.files)]
        self.runs = 0

    def setup(self):
        rng = datagen.stream(self.name, self.seed)
        for name in self.names:
            matrix, _ = datagen.mixed_rows(self.rows, rng)
            datagen.write_mixed_csv(name, self.workdir, matrix)

    def prepare(self):
        self.fitted, self.reference_rows, self.lls, self.targets = {}, [], [], []
        for name in self.names:
            self.reference(name)

    def argv(self, name, out):
        return ["--data-dir", str(self.workdir), "--seed", str(self.seed),
                "--threads", str(self.threads), "--out", str(out),
                "grid", "--data", name, "--method", "learnspn", "--clusterer", "em",
                "--p", "0.01", "--alpha", "0.01", "--reps", str(self.reps)]

    def step(self):
        self.runs += 1
        seconds, tables = 0.0, []
        for name in self.names:
            out = self.workdir / f"{name}-results-{self.runs}.tsv"
            with contextlib.redirect_stdout(io.StringIO()):
                code, s = self.clock.time(LONG_UNITS, cli.main, self.argv(name, out))
            seconds += s
            tables.append((code, out.read_text() if out.exists() else ""))
            for path in (out, out.with_suffix(out.suffix + ".plot.tsv")):
                path.unlink(missing_ok=True)
        self.ledger.ops(self.files)
        self.infer(self.targets, **self.per_step)
        rows = [(code, [line.rsplit("\t", 1)[0] for line in text.splitlines()])
                for code, text in tables]
        return {"learn_s": seconds, "tables": tables, "output": rows}

    def reference(self, name):
        """One grid cell learned in one thread through the library API."""
        bundle = datasets.load_mixed_csv(self.workdir / f"{name}.csv",
                                         self.workdir / f"{name}.schema", seed=self.seed,
                                         name=name)
        valids, tests, nodes = [], [], []
        for rep in range(self.reps):
            hp = Hyperparams(p_threshold=0.01, alpha=0.01, clusterer="em", seed=self.seed + rep)
            circuit, trace = learner.learn_spn(WeightedDataset(bundle.train, None, bundle.schema), hp)
            self.fitted[f"{name}/rep{rep}"] = (circuit, trace, bundle.train, bundle.test)
            valids.append(float(np.mean(circuit.log_density(bundle.valid))))
            tests.append(float(np.mean(circuit.log_density(bundle.test))))
            nodes.append(circuit.n_nodes)
        self.ledger.ops(self.reps)
        tests = np.array(tests)
        self.reference_rows.append({
            "dataset": name, "method": "learnspn", "clusterer": "em",
            "p": f"{0.01:.6g}", "alpha": f"{0.01:.6g}",
            "ll_valid_mean": f"{float(np.mean(valids)):.6g}",
            "ll_test_mean": f"{float(tests.mean()):.6g}",
            "ll_test_std": f"{float(tests.std()):.6g}",
            "nodes": str(int(np.mean(nodes)))})
        self.lls.append(float(tests.mean()))
        label = f"{name}/rep0"
        self.targets.append((label, self.fitted[label][0], np.vstack([bundle.valid, bundle.test]),
                             bundle.test))

    def main_circuit(self):
        return self.fitted[f"{self.names[0]}/rep0"][0]

    def finish(self, steps, write_fingerprint=False):
        for i, (name, row) in enumerate(zip(self.names, self.reference_rows)):
            for s in steps:
                code, text = s["tables"][i]
                self.ledger.check(f"{name} grid results", checks.grid_table, code, text, [row])
        check_circuits(self.name, self.seed, self.ledger, self.fitted, write_fingerprint)
        self.check_samples()
        return {
            "learn_s": statistics.median(s["learn_s"] for s in steps),
            "test_nll": -float(np.mean(self.lls)),
            **self.timings.metrics(),
        }


class Infer(Workload):
    """Fixture circuits learned once from training rows that are the same
    for every seed; the seed draws the test rows, queries and samples."""

    name = "infer"
    dataset = "nltcs"
    step_s = 7.0
    sizes_a = (16181, 2157, 3236)
    sizes_b = (8000, 1000)

    def setup(self):
        n_train, n_valid, n_test = self.sizes_a
        fixed = datagen.binary_rows(n_train + n_valid, datagen.stream("infer-a"))
        test = datagen.binary_rows(n_test, datagen.stream("infer-a", self.seed))
        datagen.write_discrete_triple(self.dataset, self.workdir, fixed[:n_train],
                                      fixed[n_train:], test)
        self.bundle = datasets.load_discrete(self.dataset, self.workdir)
        self.b_train, arities = datagen.mixed_rows(self.sizes_b[0], datagen.stream("infer-b"))
        self.b_test, _ = datagen.mixed_rows(self.sizes_b[1], datagen.stream("infer-b", self.seed))
        self.b_schema = datagen.mixed_schema(arities)

    def prepare(self):
        """Learn fixture circuits A (binary) and B (mixed) ``FIXTURE_LEARNS``
        times each; ``learn_s`` is the sum of the two median times."""
        hp = _kmeans_hp(FIXTURE_SEED)
        b = self.bundle
        data = {"A": (WeightedDataset(b.train, None, b.schema), b.train, b.test),
                "B": (WeightedDataset(self.b_train, None, self.b_schema), self.b_train, self.b_test)}
        times = {"A": [], "B": []}
        self.fitted = {}
        for _ in range(FIXTURE_LEARNS):
            for label, (dataset, train, test) in data.items():
                (circuit, trace), s = self.clock.time(LONG_UNITS, learner.learn_spn, dataset, hp)
                times[label].append(s)
                self.fitted[label] = (circuit, trace, train, test)
        self.ledger.ops(2 * FIXTURE_LEARNS)
        self.learn_s = sum(statistics.median(t) for t in times.values())

    def main_circuit(self):
        return self.fitted["A"][0]

    def step(self):
        b = self.bundle
        out = self.infer([("A", self.fitted["A"][0], np.vstack([b.train, b.test]), b.test),
                          ("B", self.fitted["B"][0], None, self.b_test)], density=3)
        return {"output": out["density"]["A"]}

    def finish(self, steps, write_fingerprint=False):
        check_circuits(self.name, self.seed, self.ledger, self.fitted, write_fingerprint)
        self.check_samples()
        self.ledger.check("log_density repeats exactly", lambda: [] if all(
            np.array_equal(s["output"], steps[0]["output"]) for s in steps) else ["differs"])
        return {
            "learn_s": self.learn_s,
            "test_nll": -float(np.mean(self.main_circuit().log_density(self.bundle.test))),
            **self.timings.metrics(),
        }


WORKLOADS = {w.name: w for w in (SoftBinary, GridMixed, Infer)}


def warm_up() -> None:
    """Run each code path once on tiny inputs so lazy imports and caches
    are settled before anything is timed."""
    rng = np.random.default_rng(0)
    for matrix, schema, clusterer in (
        (datagen.binary_rows(300, rng), Schema.binary(datagen.N_BINARY_VARS), "kmeans"),
        (datagen.mixed_rows(300, rng)[0], datagen.mixed_schema(datagen.mixed_params()[2]), "em"),
    ):
        hp = Hyperparams(p_threshold=0.01, alpha=0.01, clusterer=clusterer)
        circuit, _ = learner.learn_spn(WeightedDataset(matrix, None, schema), hp)
        circuit.log_density(matrix)
        circuit.log_marginal(partial_query(schema, matrix[0], rng))
        circuit.sample(rng, 10)
        Circuit.from_json(circuit.to_json())


def _same_outputs(a, b) -> list:
    if isinstance(a, np.ndarray):
        return [] if np.array_equal(a, b) else ["traced log_density differs"]
    return [] if a == b else ["traced output differs from the untraced one"]


def run(name, seed, seconds, trace, workdir, spans_out=None, write_fingerprint=False,
        clock=None):
    """Measure one workload; returns ``(ledger, metrics)``.

    Untraced: set-up ``SETUP_REPEATS`` times (the median is ``setup_s``),
    then ``seconds / step_s`` steps (at least one), a count fixed by
    ``seconds`` so that memory peaks repeat.  Traced: one untraced step for
    the overhead baseline, then set-up, step and finish once under the
    tracer; the overhead is in wall time and leaves out the redundancy
    probes' time.
    """
    ledger, clock = Ledger(), clock or Clock()
    w = WORKLOADS[name](seed, Path(workdir), ledger, clock)
    setup_times = [clock.time(LONG_UNITS, w.setup)[1] for _ in range(1 if trace else SETUP_REPEATS)]
    warm_up()

    if not trace:
        w.prepare()
        steps = [w.step() for _ in range(max(1, round(seconds / w.step_s)))]
        metrics = w.finish(steps, write_fingerprint)
        metrics["setup_s"] = statistics.median(setup_times)
        return ledger, metrics

    w.prepare()
    t0 = perf_counter()
    plain = w.step()
    plain_s = perf_counter() - t0
    tracer = spans.Tracer()
    with tracer:
        w.setup()
        w.prepare()
        t0 = perf_counter()
        probes_before = tracer.probe_seconds()
        traced = w.step()
        traced_s = perf_counter() - t0 - (tracer.probe_seconds() - probes_before)
        w.finish([traced])
    ledger.check("traced run matches untraced run", _same_outputs, plain["output"], traced["output"])
    if spans_out is not None:
        tracer.write(spans_out)
    metrics = spans.layer_metrics(tracer.spans)
    metrics.update({f"circuit.{k}": v for k, v in checks.structure(w.main_circuit()).items()})
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    return ledger, metrics
