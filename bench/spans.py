"""Outside-in tracing: spans recorded around calls into each softpc layer.

``Tracer.install`` replaces the public functions of each module with
wrappers at the place where callers look the names up, and
``Tracer.uninstall`` puts every original back.  A span records its
name, start, end, parent and thread.  Each thread keeps its own span
stack; a span opened on a thread with an empty stack (a grid worker)
takes the innermost open span of the main thread as its parent.

Some wrappers run a redundancy probe (``np.unique`` over the scope
columns) before the call.  The probe runs inside the span's interval,
so no parent is charged for it, and its time is subtracted from the
span's own duration.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter

import numpy as np

from checks import step_counts


class Span:
    __slots__ = ("sid", "name", "parent", "thread", "t0", "t1", "excluded", "info")

    def __init__(self, sid, name, parent, thread):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.t0 = self.t1 = 0.0
        self.excluded = 0.0
        self.info = None


def _distinct_rows(matrix, scope) -> int:
    cols = np.ascontiguousarray(np.asarray(matrix, dtype=float)[:, list(scope)])
    return int(np.unique(cols.view(np.dtype((np.void, cols.itemsize * cols.shape[1])))).size)


def _probe_scope(matrix, weights, scope, *args, **kwargs):
    return {"rows": int(np.asarray(matrix).shape[0]), "distinct": _distinct_rows(matrix, scope),
            "scope": len(scope)}


def _after_partition(span, groups):
    span.info["groups"] = len(groups)


def _after_em(span, result):
    span.info["k"] = len(result[1].components)


def _after_learn(span, result):
    span.info = {"steps": step_counts(result[1])}


def _after_load(span, bundle):
    span.info = {"rows": int(bundle.train.shape[0] + bundle.valid.shape[0] + bundle.test.shape[0])}


def _probe_cli(argv=None):
    threads = 1
    if argv and "--threads" in argv:
        threads = int(argv[list(argv).index("--threads") + 1])
    return {"threads": threads}


class Tracer:
    """Collects spans from wrapped softpc functions; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack = None
        self._next = 0
        self._lock = threading.Lock()
        self._patches = []

    # ------------------------------------------------------------------
    # span bookkeeping

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.get_ident() == self._main:
                self._main_stack = stack
        return stack

    def _new_span(self, name, stack):
        if stack:
            parent = stack[-1].sid
        else:
            main = self._main_stack
            parent = main[-1].sid if main and main is not stack else None
        with self._lock:
            sid = self._next
            self._next += 1
        return Span(sid, name, parent, threading.get_ident())

    def wrap(self, fn, name, probe=None, after=None):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = tracer._new_span(name, stack)
            span.t0 = perf_counter()
            if probe is not None:
                span.info = probe(*args, **kwargs)
                span.excluded = perf_counter() - span.t0
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                after(span, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # installation

    def _patch(self, owner, attr, name, probe=None, after=None):
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name, probe, after))
        else:
            replacement = self.wrap(original, name, probe, after)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every traced softpc function; returns ``(owner, attr, original)`` triples."""
        from softpc import circuit, cli, clustering, datasets, estimators, independence, learner

        C = circuit.Circuit
        self._patch(clustering, "soft_kmeans", "clustering.soft_kmeans", _probe_scope)
        self._patch(clustering, "em_factorized", "clustering.em_factorized", _probe_scope, _after_em)
        self._patch(clustering, "softmax_memberships", "clustering.softmax_memberships")
        # leaf_log_pdf is imported by name into both modules, so each copy is wrapped
        self._patch(clustering, "leaf_log_pdf", "estimators.leaf_eval")
        self._patch(circuit, "leaf_log_pdf", "circuit.leaf")
        self._patch(independence, "partition_scope", "independence.partition_scope",
                    _probe_scope, _after_partition)
        self._patch(independence, "weighted_chi2", "independence.weighted_chi2")
        self._patch(independence, "discretize", "independence.discretize")
        self._patch(estimators, "fit_multinomial", "estimators.fit")
        self._patch(estimators, "fit_gaussian", "estimators.fit")
        for method in ("log_density", "log_marginal", "sample", "to_json", "from_json", "validate"):
            self._patch(C, method, f"circuit.{method}")
        self._patch(learner, "learn_spn", "learner.learn", after=_after_learn)
        self._patch(learner, "soft_learn", "learner.learn", after=_after_learn)
        self._patch(datasets, "load_discrete", "datasets.load", after=_after_load)
        self._patch(datasets, "load_mixed_csv", "datasets.load", after=_after_load)
        self._patch(cli, "main", "cli.main", _probe_cli)
        return list(self._patches)

    def uninstall(self):
        """Restore every original, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def probe_seconds(self) -> float:
        return sum(s.excluded for s in self.spans)

    def write(self, path) -> None:
        """Spans as tab-separated lines, one per span, ordered by id."""
        with open(path, "w") as fh:
            fh.write("id\tname\tparent\tthread\tstart\tend\tprobe_s\n")
            for s in sorted(self.spans, key=lambda s: s.sid):
                parent = "" if s.parent is None else s.parent
                fields = (s.sid, s.name, parent, s.thread, repr(s.t0), repr(s.t1), repr(s.excluded))
                fh.write("\t".join(map(str, fields)) + "\n")


# ----------------------------------------------------------------------
# per-layer metrics


def _union_length(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans) -> dict:
    """Per-layer counts and times from a finished trace.

    Self time is a span's duration minus the part of its interval covered
    by child spans (on any thread) and minus its own probe time.
    Inclusive times subtract the probe time of the whole subtree.
    """
    by_id = {s.sid: s for s in spans}
    children = {}
    for s in spans:
        if s.parent in by_id:
            children.setdefault(s.parent, []).append(s)

    probe_below = {}

    def probes(s):
        if s.sid not in probe_below:
            probe_below[s.sid] = s.excluded + sum(probes(c) for c in children.get(s.sid, ()))
        return probe_below[s.sid]

    for s in sorted(spans, key=lambda s: -s.sid):  # children before parents, bounded recursion
        probes(s)

    def inclusive(s):
        return s.t1 - s.t0 - probe_below[s.sid]

    def self_time(s):
        covered = _union_length([(c.t0, c.t1) for c in children.get(s.sid, ())], s.t0, s.t1)
        return s.t1 - s.t0 - covered - s.excluded

    def named(*names):
        return [s for s in spans if s.name in names]

    def layer(prefix):
        return [s for s in spans if s.name.startswith(prefix + ".")]

    def total(items, fn=inclusive):
        return float(sum(fn(s) for s in items))

    m = {}

    clus = layer("clustering")
    outer = [s for s in named("clustering.soft_kmeans", "clustering.em_factorized")
             if not (s.parent in by_id and by_id[s.parent].name.startswith("clustering."))]
    rows = sum(s.info["rows"] for s in outer)
    distinct = sum(s.info["distinct"] for s in outer)
    em_iters = 0.0
    for s in named("clustering.em_factorized"):
        evals = sum(1 for c in children.get(s.sid, ()) if c.name == "estimators.leaf_eval")
        em_iters += evals / (s.info.get("k", 1) * s.info["scope"])
    m["clustering.calls"] = len(outer)
    m["clustering.self_s"] = total(clus, self_time)
    m["clustering.kmeans_iters"] = len(named("clustering.softmax_memberships"))
    m["clustering.em_iters"] = em_iters
    m["clustering.rows"] = rows
    m["clustering.distinct_rows"] = distinct
    m["clustering.rows_per_distinct"] = rows / distinct if distinct else 0.0

    fits, leaf_evals = named("estimators.fit"), named("estimators.leaf_eval")
    m["estimators.fit_calls"] = len(fits)
    m["estimators.fit_s"] = total(fits)
    m["estimators.leaf_eval_calls"] = len(leaf_evals)
    m["estimators.leaf_eval_s"] = total(leaf_evals)

    parts, chi2 = named("independence.partition_scope"), named("independence.weighted_chi2")
    p_rows = sum(s.info["rows"] for s in parts)
    p_distinct = sum(s.info["distinct"] for s in parts)
    m["independence.calls"] = len(parts)
    m["independence.self_s"] = total(layer("independence"), self_time)
    m["independence.chi2_tests"] = len(chi2)
    m["independence.chi2_s"] = total(chi2)
    m["independence.discretize_calls"] = len(named("independence.discretize"))
    m["independence.rows_per_distinct"] = p_rows / p_distinct if p_distinct else 0.0
    m["independence.split_rate"] = (
        sum(1 for s in parts if s.info["groups"] > 1) / len(parts) if parts else 0.0
    )

    evals = named("circuit.log_density", "circuit.log_marginal")
    leaf_s = total([c for s in evals for c in children.get(s.sid, ()) if c.name == "circuit.leaf"])
    m["circuit.leaf_s"] = leaf_s
    m["circuit.inner_s"] = total(evals) - leaf_s
    m["circuit.evals"] = len(evals)
    for op in ("sample", "to_json", "from_json", "validate"):
        m[f"circuit.{op}_s"] = total(named(f"circuit.{op}"))

    loads = named("datasets.load")
    m["datasets.load_s"] = total(loads)
    m["datasets.rows"] = sum(s.info["rows"] for s in loads if s.info)

    mains = named("cli.main")
    learns = named("learner.learn")
    # grid workers' learn spans hang directly under the cli.main span
    main_ids = {s.sid for s in mains}
    busy = total([s for s in learns if s.parent in main_ids])
    capacity = sum(s.info["threads"] * inclusive(s) for s in mains)
    m["cli.self_s"] = total(mains, self_time)
    m["cli.thread_busy_frac"] = busy / capacity if capacity else 0.0

    steps = {}
    for s in learns:
        for kind, n in (s.info or {}).get("steps", {}).items():
            steps[kind] = steps.get(kind, 0) + n
    m["learner.self_s"] = total(learns, self_time)
    for kind in ("sum", "product", "factorize", "leaf"):
        m[f"learner.{kind}_steps"] = steps.get(kind, 0)
    return m
