"""Probabilistic circuits: representation, validation, inference, sampling, IO.

A circuit is a single-rooted DAG over sum, product, and leaf nodes stored in
a topologically ordered table (children always precede their parents).  All
evaluation is done in log-space (log-sum-exp at sums, addition at products),
so deep circuits do not underflow.

Inference and sampling run on a compiled form, built once per circuit on
first use: the leaves grouped by variable with their parameters stacked, and
the inner nodes grouped by height and kind, so that no node depends on a node
in its own group.  Rows are evaluated in chunks of a bounded number of
node-rows; per chunk there is one leaf call per variable and one vectorised
step per group, lowest height first.  Sampling is one pass the other way:
one vectorised step per group, highest first, then one draw per variable.
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


def _cumulative(weights):
    """Inverse-CDF table for a ``(width, nodes)`` array of weights by position.

    Row ``j`` of the ``(width - 1, nodes)`` result holds each node's total
    weight over positions ``0..j``, so the number of entries in a node's
    column that are ``<=`` a uniform draw is the position drawn.  From each
    node's last positive weight on the column holds +inf, so neither padding
    nor weights that sum to slightly less than 1 can draw a zero-weight
    position.
    """
    cumulative = np.cumsum(weights, axis=0)[:-1]
    last = len(weights) - 1 - np.argmax(weights[::-1] > 0, axis=0)
    cumulative[np.arange(len(cumulative))[:, None] >= last] = np.inf
    return cumulative


def _inverse_cdf(cumulative, index, u):
    """Per draw, the position that uniform ``u`` picks from column ``index``
    of a ``_cumulative`` table: the count of the column's entries ``<= u``."""
    hits = cumulative.take(index, axis=1) <= u
    # summed into the smallest type that holds the count: an intp sum over
    # axis 0 of a bool array is several times slower
    return hits.sum(axis=0, dtype=np.min_scalar_type(len(cumulative))).astype(np.intp)


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

        - ``leaves``: per variable, ``(v, lo, hi, stacked, cumulative)``,
          its block of slots and its leaf parameters stacked once into a
          ``(k, arity)`` probs table or ``(k, 1)`` mu/sigma columns; for a
          categorical variable ``cumulative`` is the ``(arity - 1, k)``
          ``_cumulative`` table of the probs, for a continuous one None;
        - ``groups``: per group, ``(lo, hi, children, log_weights,
          cumulative)``.  For a product group ``children`` is a CSR matrix of
          ones, node by slot, and ``log_weights`` and ``cumulative`` are
          None.  For a sum group ``children`` is a ``(width, nodes)`` array
          of child slots by position, ``log_weights`` the matching
          ``(width, nodes, 1)`` log weights and ``cumulative`` the
          ``(width - 1, nodes)`` ``_cumulative`` table of the weights; a sum
          with fewer children repeats its first child with weight 0.
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
                    cumulative = _cumulative(stacked.probs.T)
                else:
                    stacked = Gaussian(np.array([[d.mu] for d in dists]),
                                       np.array([[d.sigma] for d in dists]))
                    cumulative = None
                leaves.append((v, lo, lo + len(dists), stacked, cumulative))
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
                                        for node, k in zip(nodes, pad)]).T
                    cumulative = _cumulative(weights)
                    with np.errstate(divide="ignore"):
                        log_weights = np.log(weights)[:, :, None]
                else:
                    counts = [len(node.children) for node in nodes]
                    flat = slot_of[[c for node in nodes for c in node.children]]
                    children = csr_matrix((np.ones(len(flat)), flat, np.cumsum([0] + counts)),
                                          shape=(len(nodes), len(self.nodes)))
                    log_weights = cumulative = None
                groups.append((lo, lo + len(ids), children, log_weights, cumulative))
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
            for v, lo, hi, dist, _ in leaves:
                entry = columns[v]
                if entry is None:
                    vals[lo:hi] = 0.0
                elif isinstance(entry, tuple):
                    with np.errstate(divide="ignore"):
                        vals[lo:hi] = np.log(gaussian_cdf(dist, entry[1])
                                             - gaussian_cdf(dist, entry[0]))
                else:
                    vals[lo:hi] = leaf_log_pdf(dist, entry[rows])
            for lo, hi, children, log_weights, _ in groups:
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
        """Draw ``n`` independent full assignments as an ``(n, vars)`` array.

        Ancestral sampling on the compiled form, top-down.  A row that
        reaches a node is the int64 key ``slot << b | row``, where ``b`` is
        the bit length of ``n - 1``, so that a shift and a mask split it
        again.  The root's ``n`` keys start it; then each inner group,
        highest first, takes the keys in its block of slots and sends each
        row on: a product group to all of a node's children, a sum group to
        one child drawn by weight.  Each batch of new keys is sorted and
        split by one ``searchsorted`` into the blocks below it.  Last, each
        variable's leaves draw values for the rows that reached them.  In a
        decomposable circuit a row reaches a node at most once, so the keys
        are unique; where they are not, sorting integers is still
        deterministic.

        Draw order from ``rng``: one ``rng.random(pairs)`` per sum group that
        rows reach, highest group first, counted against the group's
        cumulative weights; then, per variable in order, one
        ``rng.random(pairs)`` counted against the cumulative probabilities of
        a categorical variable's leaves, or one ``rng.standard_normal(pairs)``
        for a continuous variable's.
        """
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError(f"expected a non-negative integer number of rows, got {n!r}")
        n = int(n)
        # an int64 shift, so keys are int64 whatever the dtype of the slots
        shift = np.int64(max(n - 1, 0).bit_length())
        root_slot, _, leaves, groups = self._compiled()
        starts = [entry[1] for entry in leaves] + [group[0] for group in groups]
        bounds = np.array(starts + [len(self.nodes)], dtype=np.int64) << shift
        pending = [[] for _ in starts]

        def push(keys):
            keys.sort()
            cuts = keys.searchsorted(bounds)
            hit = (cuts[1:] > cuts[:-1]).nonzero()[0].tolist()
            cuts = cuts.tolist()
            for b in hit:
                pending[b].append(keys[cuts[b]:cuts[b + 1]])

        def reached(b, lo):
            """The nodes (counted from slot ``lo``) and rows of block b's keys."""
            parts = pending[b]
            keys = parts[0] if len(parts) == 1 else np.concatenate(parts)
            return (keys >> shift) - lo, keys & ((1 << shift) - 1)

        push((root_slot << shift) + np.arange(n))
        for b, (lo, _, children, _, cumulative) in reversed(list(enumerate(groups, len(leaves)))):
            if not pending[b]:
                continue
            node, row = reached(b, lo)
            if cumulative is None:
                first = children.indptr.take(node)
                counts = children.indptr.take(node + 1) - first
                ends = counts.cumsum()
                child = children.indices.take(np.arange(ends[-1])
                                              + (first - ends + counts).repeat(counts))
                row = row.repeat(counts)
            else:
                pick = _inverse_cdf(cumulative, node, rng.random(row.size))
                child = children.take(pick * children.shape[1] + node)
            push((child << shift) + row)

        out = np.empty((len(self.schema), n))
        for b, (v, lo, _, dist, cumulative) in enumerate(leaves):
            if not pending[b]:
                continue
            leaf, row = reached(b, lo)
            if cumulative is None:
                out[v][row] = (dist.mu[:, 0].take(leaf)
                               + dist.sigma[:, 0].take(leaf) * rng.standard_normal(row.size))
            else:
                out[v][row] = _inverse_cdf(cumulative, leaf, rng.random(row.size))
        return out.T

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
