"""Probabilistic circuits: representation, validation, inference, sampling, IO.

A circuit is a single-rooted DAG over sum, product, and leaf nodes stored in
a topologically ordered table (children always precede their parents), which
allows single-pass bottom-up evaluation.  All evaluation is done in
log-space (log-sum-exp at sums, addition at products), so deep circuits do
not underflow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .estimators import Gaussian, Multinomial, gaussian_cdf, leaf_log_pdf
from .schema import Schema, Variable

WEIGHT_TOL = 1e-9


class ModelParseError(ValueError):
    """Raised when a serialized model cannot be parsed."""


class InvalidCircuitError(ValueError):
    """Raised when a deserialized circuit fails validation."""

    def __init__(self, violations):
        super().__init__("invalid circuit: " + "; ".join(violations))
        self.violations = list(violations)


def _require_types(values, types, what):
    """Raise TypeError unless each value's type is in ``types``; JSON bools
    are not integers and strings are not numbers."""
    if not set(map(type, values)) <= types:
        bad = next(v for v in values if type(v) not in types)
        raise TypeError(f"expected {what}, got {bad!r}")


@dataclass(frozen=True)
class SumNode:
    children: tuple
    weights: tuple


@dataclass(frozen=True)
class ProductNode:
    children: tuple


@dataclass(frozen=True)
class LeafNode:
    var: int
    dist: object


class Circuit:
    """Immutable circuit over a fixed schema.

    Parameters
    ----------
    nodes : sequence of SumNode | ProductNode | LeafNode
        Node table; children must precede parents.
    root : int
        Index of the root node.
    schema : Schema
        Per-variable kinds (categorical with arity, or continuous).
    """

    def __init__(self, nodes, root: int, schema: Schema):
        self.nodes = tuple(nodes)
        self.root = int(root)
        self.schema = schema
        self.scopes = self._compute_scopes()
        self._leaves = None

    def _compute_scopes(self):
        scopes = []
        for node in self.nodes:
            if isinstance(node, LeafNode):
                scopes.append(frozenset((node.var,)))
            else:
                s = frozenset()
                for c in node.children:
                    if 0 <= c < len(scopes):
                        s |= scopes[c]
                scopes.append(s)
        return tuple(scopes)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return sum(
            len(n.children) for n in self.nodes if not isinstance(n, LeafNode)
        )

    @property
    def n_params(self) -> int:
        total = 0
        for n in self.nodes:
            if isinstance(n, SumNode):
                total += len(n.weights)
            elif isinstance(n, LeafNode):
                if isinstance(n.dist, Multinomial):
                    total += n.dist.arity
                else:
                    total += 2
        return total

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> list:
        """Return a list of violation messages; empty iff the circuit is valid."""
        violations = []
        n = len(self.nodes)
        n_vars = len(self.schema)
        if not (0 <= self.root < n):
            return [f"root index {self.root} out of range"]

        indegree = [0] * n
        for i, node in enumerate(self.nodes):
            if isinstance(node, LeafNode):
                if not (0 <= node.var < n_vars):
                    violations.append(f"node {i}: leaf variable {node.var} out of schema")
                    continue
                var = self.schema[node.var]
                if isinstance(node.dist, Multinomial):
                    if var.kind != "cat":
                        violations.append(f"node {i}: multinomial leaf on continuous variable")
                    elif node.dist.arity != var.arity:
                        violations.append(
                            f"node {i}: arity {node.dist.arity} != schema arity {var.arity}"
                        )
                    total = sum(node.dist.probs)
                    if not math.isfinite(total):
                        violations.append(f"node {i}: non-finite multinomial prob total {total!r}")
                    elif abs(total - 1.0) > WEIGHT_TOL:
                        violations.append(f"node {i}: multinomial probs do not sum to 1")
                    if any(p < 0 for p in node.dist.probs):
                        violations.append(f"node {i}: negative multinomial prob")
                elif isinstance(node.dist, Gaussian):
                    if var.kind != "cont":
                        violations.append(f"node {i}: gaussian leaf on categorical variable")
                    if not (math.isfinite(node.dist.mu) and math.isfinite(node.dist.sigma)):
                        violations.append(f"node {i}: non-finite mu or sigma")
                    if node.dist.sigma <= 0:
                        violations.append(f"node {i}: nonpositive sigma")
                else:
                    violations.append(f"node {i}: unknown leaf distribution")
                continue

            if len(node.children) < 1:
                violations.append(f"node {i}: no children")
            for c in node.children:
                if not (0 <= c < n):
                    violations.append(f"node {i}: child {c} out of range")
                elif c >= i:
                    violations.append(f"node {i}: child {c} does not precede parent (cycle risk)")
                else:
                    indegree[c] += 1

            if isinstance(node, SumNode):
                if len(node.children) != len(node.weights):
                    violations.append(f"node {i}: child/weight count mismatch")
                if any(w < 0 for w in node.weights):
                    violations.append(f"node {i}: negative sum weight")
                total = sum(node.weights)
                if not math.isfinite(total):
                    violations.append(f"node {i}: non-finite sum weight total {total!r}")
                elif abs(total - 1.0) > WEIGHT_TOL:
                    violations.append(f"node {i}: sum weights total {total!r}, expected 1")
                child_scopes = {self.scopes[c] for c in node.children if 0 <= c < i}
                if len(child_scopes) > 1:
                    violations.append(f"node {i}: sum children have differing scopes (A1)")
            elif isinstance(node, ProductNode):
                seen = set()
                for c in node.children:
                    if not (0 <= c < i):
                        continue
                    if seen & self.scopes[c]:
                        violations.append(f"node {i}: product children overlap in scope (A2)")
                        break
                    seen |= self.scopes[c]

        roots = [i for i in range(n) if indegree[i] == 0]
        if roots != [self.root]:
            extra = [i for i in roots if i != self.root]
            if extra:
                violations.append(f"nodes {extra} are unreachable (not single-rooted)")
            if self.root not in roots:
                violations.append(f"root {self.root} has incoming edges")
        if self.scopes[self.root] != frozenset(range(n_vars)):
            violations.append("root scope does not cover all variables")
        return violations

    # ------------------------------------------------------------------
    # inference

    def _leaf_layer(self):
        """Per variable, its leaf ids and their parameters stacked once into a
        ``(k, arity)`` probs table or ``(k, 1)`` mu/sigma columns."""
        if self._leaves is None:
            by_var = {}
            for i, node in enumerate(self.nodes):
                if isinstance(node, LeafNode):
                    by_var.setdefault(node.var, []).append(i)
            for v, ids in by_var.items():
                dists = [self.nodes[i].dist for i in ids]
                if isinstance(dists[0], Multinomial):
                    stacked = Multinomial(np.array([d.probs for d in dists]))
                else:
                    stacked = Gaussian(np.array([[d.mu] for d in dists]),
                                       np.array([[d.sigma] for d in dists]))
                by_var[v] = (ids, stacked)
            self._leaves = by_var  # assigned whole, so other threads never see it half built
        return self._leaves

    def _evaluate(self, columns, n):
        """Root log values for ``n`` rows; ``columns[v]`` holds variable v's
        observed values, ``None`` (marginalised) or an ``(lo, hi)`` interval."""
        vals = np.zeros((len(self.nodes), n))
        for v, (ids, dist) in self._leaf_layer().items():
            entry = columns[v]
            if entry is not None and np.isnan(entry).any():
                raise ValueError(f"NaN value for variable {v}")
            if isinstance(entry, tuple):
                lo, hi = entry
                with np.errstate(divide="ignore"):
                    vals[ids] = np.log(gaussian_cdf(dist, hi) - gaussian_cdf(dist, lo))
            elif entry is not None:
                vals[ids] = leaf_log_pdf(dist, entry)
        return self._propagate(vals)

    def _propagate(self, vals):
        """Bottom-up pass over a (n_nodes, batch) table; returns a copy of the root row."""
        for i, node in enumerate(self.nodes):
            if isinstance(node, SumNode):
                stacked = np.stack([vals[c] for c in node.children])
                with np.errstate(divide="ignore"):
                    logw = np.log(np.asarray(node.weights))
                vals[i] = logsumexp(stacked + logw[:, None], axis=0)
            elif isinstance(node, ProductNode):
                acc = vals[node.children[0]].copy()
                for c in node.children[1:]:
                    acc += vals[c]
                vals[i] = acc
        return vals[self.root].copy()

    def log_density(self, x):
        """Log density of one full assignment (1-d) or a batch (2-d)."""
        arr = np.asarray(x, dtype=float)
        rows = np.atleast_2d(arr)
        if rows.shape[1] != len(self.schema):
            raise ValueError("row length does not match schema")
        out = self._evaluate(rows.T, rows.shape[0])
        return float(out[0]) if arr.ndim == 1 else out

    def log_marginal(self, query) -> float:
        """Log probability of a partial query.

        ``query`` is a sequence with one entry per variable: ``None`` for a
        marginalized-out variable, an int (categorical) or float
        (continuous) for an observed value, or an ``(lo, hi)`` pair for a
        closed interval over a continuous variable.
        """
        if len(query) != len(self.schema):
            raise ValueError("query length does not match schema")
        columns = []
        for v, entry in enumerate(query):
            if isinstance(entry, tuple):
                if self.schema[v].kind != "cont":
                    raise ValueError(f"interval query on categorical variable {v}")
                lo, hi = entry
                if lo > hi:
                    raise ValueError(f"interval with lo > hi on variable {v}")
            elif entry is not None:
                entry = np.array([entry], dtype=float)
            columns.append(entry)
        return float(self._evaluate(columns, 1)[0])

    # ------------------------------------------------------------------
    # sampling

    def sample(self, rng, n: int):
        """Draw ``n`` independent full assignments, top-down, visiting each
        node once (parents first) with the rows that reach it from any parent:
        a sum sends each row to one child drawn by weight, a product to all."""
        out = np.empty((n, len(self.schema)))
        reach = {self.root: np.arange(n)}
        for i in range(self.root, -1, -1):
            rows = reach.pop(i, None)
            if rows is None:
                continue
            node = self.nodes[i]
            if isinstance(node, LeafNode):
                d = node.dist
                if isinstance(d, Multinomial):
                    out[rows, node.var] = rng.choice(d.arity, size=rows.size, p=d.probs)
                else:
                    out[rows, node.var] = d.mu + d.sigma * rng.standard_normal(rows.size)
                continue
            if isinstance(node, SumNode):
                pick = rng.choice(len(node.children), size=rows.size, p=node.weights)
                parts = [rows[pick == k] for k in range(len(node.children))]
            else:
                parts = [rows] * len(node.children)
            for c, part in zip(node.children, parts):
                reach[c] = np.concatenate((reach[c], part)) if c in reach else part
        return out

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> str:
        """Serialize to the documented JSON text format (full precision).

        Schema entries hold ``kind``, ``arity`` for categorical variables,
        and ``name`` when the variable has one.
        """
        nodes = []
        for node in self.nodes:
            if isinstance(node, SumNode):
                nodes.append(
                    {
                        "type": "sum",
                        "children": list(node.children),
                        "weights": list(node.weights),
                    }
                )
            elif isinstance(node, ProductNode):
                nodes.append({"type": "prod", "children": list(node.children)})
            else:
                if isinstance(node.dist, Multinomial):
                    dist = {"type": "multinomial", "probs": list(node.dist.probs)}
                else:
                    dist = {"type": "gaussian", "mu": node.dist.mu, "sigma": node.dist.sigma}
                nodes.append({"type": "leaf", "var": node.var, "dist": dist})
        doc = {
            "schema": [v.to_dict() for v in self.schema],
            "root": self.root,
            "nodes": nodes,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str, check: bool = True) -> "Circuit":
        """Parse a serialized circuit; validates and rejects invalid models."""
        try:
            doc = json.loads(text)
            schema = Schema([Variable.from_dict(d) for d in doc["schema"]])
            nodes, ints, numbers = [], [doc["root"]], []
            for nd in doc["nodes"]:
                t = nd["type"]
                if t == "sum":
                    ints += nd["children"]
                    numbers += nd["weights"]
                    nodes.append(SumNode(tuple(nd["children"]), tuple(map(float, nd["weights"]))))
                elif t == "prod":
                    ints += nd["children"]
                    nodes.append(ProductNode(tuple(nd["children"])))
                elif t == "leaf":
                    dd = nd["dist"]
                    if dd["type"] == "multinomial":
                        numbers += dd["probs"]
                        dist = Multinomial(tuple(map(float, dd["probs"])))
                    elif dd["type"] == "gaussian":
                        numbers += (dd["mu"], dd["sigma"])
                        dist = Gaussian(float(dd["mu"]), float(dd["sigma"]))
                    else:
                        raise ValueError(f"unknown dist type {dd['type']!r}")
                    ints.append(nd["var"])
                    nodes.append(LeafNode(nd["var"], dist))
                else:
                    raise ValueError(f"unknown node type {t!r}")
            _require_types(ints, {int}, "an integer")
            _require_types(numbers, {int, float}, "a number")
            circuit = cls(nodes, doc["root"], schema)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelParseError(f"cannot parse model: {exc}") from exc
        if check:
            violations = circuit.validate()
            if violations:
                raise InvalidCircuitError(violations)
        return circuit

    def __eq__(self, other):
        return (
            isinstance(other, Circuit)
            and self.nodes == other.nodes
            and self.root == other.root
            and self.schema == other.schema
        )

    def __hash__(self):
        return hash((self.nodes, self.root))
