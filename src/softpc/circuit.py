"""Probabilistic circuits: representation, validation, inference, sampling, IO.

A circuit is a single-rooted DAG over sum, product, and leaf nodes stored in
a topologically ordered table (children always precede their parents).  All
evaluation is done in log-space (log-sum-exp at sums, addition at products),
so deep circuits do not underflow.

Inference runs on a compiled form, built once per circuit on first use: the
leaves grouped by variable with their parameters stacked, and the inner nodes
grouped by height and kind, so that no node depends on a node in its own
group.  Rows are evaluated in chunks of a bounded number of node-rows; per
chunk there is one leaf call per variable and one vectorised step per group,
lowest height first.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .estimators import Gaussian, Multinomial, gaussian_cdf, leaf_log_pdf
from .schema import Schema, Variable

WEIGHT_TOL = 1e-9
# node-rows per evaluation chunk, so a chunk's table is 4 MiB: about 512 rows
# of a 1000-node circuit.  Smaller chunks pay more per-step Python overhead,
# larger ones fall out of cache; 2**19 and 2**20 measured fastest.
_CHUNK_CELLS = 1 << 19
# stands in for a sum's max when all its terms are -inf, so terms minus it stay -inf
_LOG_FLOOR = np.finfo(float).min


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


def _is_number(value) -> bool:
    """A real number, numpy scalars included; bools are not numbers here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
        self._plan = None

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

    def _compiled(self):
        """The circuit's compiled form for evaluation, built on first use.

        Every node gets a slot in a ``(slots, rows)`` table: leaves first,
        grouped by variable, then the inner nodes grouped by height (1 + the
        tallest child's) and kind, so that each group fills one contiguous
        block of slots from slots below it.  Returns ``(root_slot, chunk,
        leaves, groups)``:

        - ``leaves``: per variable, ``(v, lo, hi, stacked)``, its block of
          slots and its leaf parameters stacked once into a ``(k, arity)``
          probs table or ``(k, 1)`` mu/sigma columns;
        - ``groups``: per group, ``(lo, hi, children, log_weights)``.  For a
          product group ``children`` is a CSR matrix of ones, node by slot,
          and ``log_weights`` is None.  For a sum group ``children`` is a
          ``(width, nodes)`` array of child slots by position and
          ``log_weights`` the matching ``(width, nodes, 1)`` log weights; a
          sum with fewer children repeats its first child with weight 0.
        """
        if self._plan is None:
            # here, not at module level: scipy.sparse adds ~15 ms to importing
            # softpc, and only evaluation needs it
            from scipy.sparse import csr_matrix

            height = [0] * len(self.nodes)
            by_var, by_group = {}, {}
            for i, node in enumerate(self.nodes):
                if isinstance(node, LeafNode):
                    by_var.setdefault(node.var, []).append(i)
                    continue
                if not node.children or not 0 <= min(node.children) <= max(node.children) < i:
                    raise ValueError(f"node {i}: children {node.children} do not precede it")
                height[i] = 1 + max(height[c] for c in node.children)
                by_group.setdefault((height[i], isinstance(node, SumNode)), []).append(i)
            order = [i for v in sorted(by_var) for i in by_var[v]]
            order += [i for key in sorted(by_group) for i in by_group[key]]
            slot_of = np.empty(len(order), dtype=np.intp)
            slot_of[order] = np.arange(len(order))

            leaves, lo = [], 0
            for v in sorted(by_var):
                dists = [self.nodes[i].dist for i in by_var[v]]
                if isinstance(dists[0], Multinomial):
                    stacked = Multinomial(np.array([d.probs for d in dists]))
                else:
                    stacked = Gaussian(np.array([[d.mu] for d in dists]),
                                       np.array([[d.sigma] for d in dists]))
                leaves.append((v, lo, lo + len(dists), stacked))
                lo += len(dists)

            groups = []
            for (_, is_sum), ids in sorted(by_group.items()):
                nodes = [self.nodes[i] for i in ids]
                if is_sum:
                    width = max(len(node.children) for node in nodes)
                    pad = [(width - len(node.children)) for node in nodes]
                    children = slot_of[[list(node.children) + [node.children[0]] * k
                                        for node, k in zip(nodes, pad)]].T
                    weights = np.array([list(node.weights) + [0.0] * k
                                        for node, k in zip(nodes, pad)]).T[:, :, None]
                    with np.errstate(divide="ignore"):
                        log_weights = np.log(weights)
                else:
                    counts = [len(node.children) for node in nodes]
                    flat = slot_of[[c for node in nodes for c in node.children]]
                    children = csr_matrix((np.ones(len(flat)), flat, np.cumsum([0] + counts)),
                                          shape=(len(nodes), len(self.nodes)))
                    log_weights = None
                groups.append((lo, lo + len(ids), children, log_weights))
                lo += len(ids)

            chunk = max(1, _CHUNK_CELLS // len(self.nodes))
            # assigned whole, so other threads never see it half built
            self._plan = (slot_of[self.root], chunk, leaves, groups)
        return self._plan

    def _evaluate(self, columns, n):
        """Root log values for ``n`` rows; ``columns[v]`` holds variable v's
        observed values, ``None`` (marginalised) or an ``(lo, hi)`` interval.

        Rows go through in chunks, so the table holds ``slots x chunk``
        floats whatever ``n`` is.  Per chunk, each variable's leaves take one
        ``leaf_log_pdf`` call (or two ``gaussian_cdf`` calls for an interval,
        or 0 when marginalised).  Then each inner group, lowest first, is one
        vectorised step.  A product group is its CSR matrix times the table,
        which adds each node's children in order.  A sum group gathers its
        children by position and adds the log weights; then it takes the max
        over positions, sums ``exp(term - max)`` over positions in order and
        adds the max back to the log (a sum whose terms are all -inf gives
        -inf, as ``logsumexp`` does).
        """
        root_slot, chunk, leaves, groups = self._compiled()
        for v, entry in enumerate(columns):
            if entry is not None and np.isnan(entry).any():
                raise ValueError(f"NaN value for variable {v}")
        out = np.empty(n)
        for first in range(0, n, chunk):
            rows = slice(first, min(first + chunk, n))
            vals = np.empty((len(self.nodes), rows.stop - first))
            for v, lo, hi, dist in leaves:
                entry = columns[v]
                if entry is None:
                    vals[lo:hi] = 0.0
                elif isinstance(entry, tuple):
                    with np.errstate(divide="ignore"):
                        vals[lo:hi] = np.log(gaussian_cdf(dist, entry[1])
                                             - gaussian_cdf(dist, entry[0]))
                else:
                    vals[lo:hi] = leaf_log_pdf(dist, entry[rows])
            for lo, hi, children, log_weights in groups:
                if log_weights is None:
                    vals[lo:hi] = children @ vals
                else:
                    terms = vals[children]
                    terms += log_weights
                    top = terms.max(axis=0)
                    np.maximum(top, _LOG_FLOOR, out=top)  # an all -inf sum stays -inf
                    terms -= top
                    np.exp(terms, out=terms)
                    total = vals[lo:hi]
                    np.copyto(total, terms[0])
                    for term in terms[1:]:
                        total += term
                    with np.errstate(divide="ignore"):
                        np.log(total, out=total)
                    total += top
            out[rows] = vals[root_slot]
        return out

    def log_density(self, x):
        """Log density of one full assignment (1-d) or a batch (2-d)."""
        arr = np.asarray(x, dtype=float)
        if arr.ndim not in (1, 2):
            raise ValueError(f"expected one row (1-d) or a batch of rows (2-d), got {arr.ndim}-d")
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
        closed interval over a continuous variable.  Values and bounds must
        be real numbers; a bool or a string is a ``ValueError``.
        """
        if len(query) != len(self.schema):
            raise ValueError("query length does not match schema")
        columns = []
        for v, entry in enumerate(query):
            if isinstance(entry, tuple):
                if self.schema[v].kind != "cont":
                    raise ValueError(f"interval query on categorical variable {v}")
                lo, hi = entry
                if not (_is_number(lo) and _is_number(hi)):
                    raise ValueError(f"non-numeric interval bound on variable {v}: {entry!r}")
                if lo > hi:
                    raise ValueError(f"interval with lo > hi on variable {v}")
            elif entry is not None:
                if not _is_number(entry):
                    raise ValueError(f"non-numeric value for variable {v}: {entry!r}")
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
