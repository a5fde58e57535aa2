"""Output checks.  Each returns a list of problems; an empty list is a pass.

Exact checks cover structure, serialisation and marginalisation.  Samples
get a statistical check (4.5 standard errors), so that a sampler with
another random stream still passes while a wrong sampler does not.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np

SE_LIMIT = 4.5
LOG_TOL = 1e-9
LL_TOL = 1e-9
THRESHOLD = 0.0  # cut point for the continuous sample check


def structure(circuit) -> dict:
    """Node, edge and sum counts, depth, and the widest height layer."""
    from softpc.circuit import LeafNode, SumNode

    height = []
    for node in circuit.nodes:
        if isinstance(node, LeafNode):
            height.append(0)
        else:
            height.append(1 + max(height[c] for c in node.children))
    widths = np.bincount(height)
    return {
        "nodes": circuit.n_nodes,
        "edges": circuit.n_edges,
        "depth": height[circuit.root],
        "sum_nodes": sum(isinstance(n, SumNode) for n in circuit.nodes),
        "max_width": int(widths.max()),
    }


def query_from_row(schema, row):
    return [int(v) if var.kind == "cat" else float(v) for v, var in zip(row, schema)]


def _kinds(schema):
    return [(v.kind, v.arity) for v in schema]


def known_defects(circuit) -> list:
    """Defects of the current code that are reported, not counted as failures.

    The JSON format stores no variable names, so a circuit learned from a
    CSV with named columns loses its names in a round trip.  The other
    parts of the round trip are checked by ``circuit_invariants``.
    """
    from softpc.circuit import Circuit

    back = Circuit.from_json(circuit.to_json())
    if [v.name for v in back.schema] != [v.name for v in circuit.schema]:
        return ["JSON round trip drops variable names"]
    return []


def circuit_invariants(circuit, rows, rng) -> list:
    """Validity, JSON round trip, and exact marginalisation identities."""
    from softpc.circuit import Circuit

    problems = list(circuit.validate())
    back = Circuit.from_json(circuit.to_json())
    if (back.nodes, back.root, _kinds(back.schema)) != (circuit.nodes, circuit.root,
                                                        _kinds(circuit.schema)):
        problems.append("JSON round trip changed the circuit")
    elif not np.array_equal(circuit.log_density(rows), back.log_density(rows)):
        problems.append("JSON round trip changed log_density")

    schema = circuit.schema
    n = len(schema)
    empty = circuit.log_marginal([None] * n)
    if not abs(empty) <= LOG_TOL:
        problems.append(f"all-None log_marginal is {empty!r}, expected 0")
    if any(v.kind == "cont" for v in schema):
        whole = [(-math.inf, math.inf) if v.kind == "cont" else None for v in schema]
        value = circuit.log_marginal(whole)
        if not abs(value) <= LOG_TOL:
            problems.append(f"(-inf, inf) log_marginal is {value!r}, expected 0")

    binary = [v for v, var in enumerate(schema) if var.kind == "cat" and var.arity == 2]
    base = query_from_row(schema, rows[int(rng.integers(len(rows)))])
    for v in rng.choice(binary, size=min(3, len(binary)), replace=False):
        q = list(base)
        parts = []
        for level in (0, 1):
            q[v] = level
            parts.append(circuit.log_marginal(q))
        q[v] = None
        marg = circuit.log_marginal(q)
        if not abs(np.logaddexp(*parts) - marg) <= LOG_TOL:
            problems.append(f"summing out variable {v} differs from marginalising it")
    return problems


def sample_statistics(circuit, samples) -> list:
    """Every level's sample frequency (and, for continuous variables, the
    fraction below ``THRESHOLD``) within ``SE_LIMIT`` standard errors of
    the circuit's own marginal probability."""
    schema = circuit.schema
    n = samples.shape[0]
    problems = []
    for v, var in enumerate(schema):
        if var.kind == "cat":
            levels = range(1, 2) if var.arity == 2 else range(var.arity)
            events = [(level, samples[:, v] == level) for level in levels]
        else:
            events = [((-math.inf, THRESHOLD), samples[:, v] < THRESHOLD)]
        for entry, hit in events:
            q = [None] * len(schema)
            q[v] = entry
            p = math.exp(circuit.log_marginal(q))
            se = math.sqrt(max(p * (1.0 - p), 0.0) / n)
            freq = float(np.mean(hit))
            if abs(freq - p) > SE_LIMIT * se + 1e-12:
                problems.append(f"variable {v} event {entry!r}: frequency {freq:.4f}, "
                                f"marginal {p:.4f}")
    return problems


def grid_table(exit_code, text, reference_rows) -> list:
    """The grid's result file against rows computed in one thread.

    ``reference_rows`` maps column name to the expected formatted value;
    every column except ``seconds`` must match.
    """
    if exit_code != 0:
        return [f"grid exited with code {exit_code}"]
    lines = text.splitlines()
    if not lines or lines[0] != "# softpc-results v1":
        return ["grid results header is missing or wrong"]
    header = lines[1].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in lines[2:] if line.strip()]
    if len(rows) != len(reference_rows):
        return [f"grid wrote {len(rows)} rows, expected {len(reference_rows)}"]
    problems = []
    for got, want in zip(rows, reference_rows):
        for col, value in want.items():
            if col != "seconds" and got.get(col) != value:
                problems.append(f"grid column {col}: {got.get(col)!r} != reference {value!r}")
    return problems


def step_counts(learn_trace) -> dict:
    """Number of learner steps of each kind, by kind name."""
    return dict(sorted(Counter(step.step_kind for step in learn_trace.steps).items()))


def fingerprint(circuit, learn_trace, train, test) -> dict:
    """Behaviour fingerprint of a learned circuit."""
    return {
        "nodes": circuit.n_nodes,
        "train_ll": float(np.mean(circuit.log_density(train))),
        "test_ll": float(np.mean(circuit.log_density(test))),
        "steps": step_counts(learn_trace),
        "sha256": hashlib.sha256(circuit.to_json().encode()).hexdigest(),
    }


def compare_fingerprint(got: dict, want: dict) -> list:
    """Exact node and step counts, LLs within ``LL_TOL``; the JSON hash is
    informational, since reordered exact arithmetic may move last bits."""
    problems = []
    for key in ("nodes", "steps"):
        if got[key] != want[key]:
            problems.append(f"fingerprint {key}: {got[key]!r} != {want[key]!r}")
    for key in ("train_ll", "test_ll"):
        if not abs(got[key] - want[key]) <= LL_TOL:
            problems.append(f"fingerprint {key}: {got[key]!r} != {want[key]!r}")
    return problems
