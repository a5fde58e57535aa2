"""Probabilistic circuits: representation, validation, inference, sampling, IO.

A circuit is a single-rooted DAG over sum, product, and leaf nodes stored in
a topologically ordered table (children always precede their parents).  All
evaluation is done in log-space (log-sum-exp at sums, addition at products),
so deep circuits do not underflow.

Inference and sampling run on a compiled form, built once per circuit on
first use: the leaves grouped by variable with their parameters stacked
(categorical variables by arity first, then the continuous ones), and the
inner nodes grouped into steps that alternate between products (odd
steps) and sums (even steps).  Each inner node takes the first step of its
kind after all of its children, so no node depends on a node in its own
group, and a circuit that mixes sums and products at one height needs fewer
groups than one per height and kind.  Rows are evaluated in chunks of a
bounded number of node-rows, all in one node-by-row table allocated once
per call; per chunk there is one leaf call per variable, which writes its
leaves' values straight into their block of the table through
``leaf_log_pdf(out=)``, and one vectorised step per group, first step
first: a product group is one call of scipy's compiled CSR kernel on its
``(indptr, indices, ones)`` arrays, a sum group a few ufunc calls.  A
chunk of one row, as in every ``log_marginal`` query, runs those steps on
a 1-D view of its table, so that the fixed cost of each call stays small.
``log_density`` on a batch whose variables are all categorical evaluates
each distinct row once: each row's codes fold into an int64 key in mixed
radix (``estimators.key_places``, the fold soft k-means keys its distinct
rows with), ``estimators.distinct`` groups equal keys, each chunk gathers
one row per group, and the values are scattered back to every row.  The
distinct rows are evaluated only where they save more than
``_COLLAPSE_COST`` node evaluations per row, the measured cost of
gathering and scattering one.  A batch with a continuous variable, whose
rows rarely repeat, or whose arities multiply past ``2**62``, is
evaluated as given.
Sampling is one pass the other way over the sum groups only, last step
first: each draws a child per row and sends the row on, in one push, to
the sums and leaves that child reaches through product edges.  Then each
leaf block, the categorical leaves of one arity or all the Gaussians,
draws its values in a few calls.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .estimators import (
    CategoricalTable,
    Gaussian,
    Multinomial,
    categorical_codes,
    distinct,
    key_places,
    leaf_log_mass,
    leaf_log_pdf,
)
from .schema import Schema, Variable

WEIGHT_TOL = 1e-9
# node-rows per evaluation chunk, so the table is 4 MiB: about 512 rows of a
# 1000-node circuit.  Smaller chunks pay more per-step Python overhead,
# larger ones fall out of cache; 2**19 and 2**20 measured fastest when every
# chunk allocated its own table and each leaf call its own array.
_CHUNK_CELLS = 1 << 19
# cells per chunk of the sampler's leaf pass (pairs times table rows), so its
# temporaries stay in cache in calls of many rows; 2**16 pairs of a binary
# block measured slower, 2**20 much slower
_SAMPLE_CELLS = 1 << 14
# stands in for a sum's max when all its terms are -inf, so terms minus it stay -inf
_LOG_FLOOR = np.finfo(float).min
# what gathering a row of a categorical batch and scattering its value
# back costs, in node evaluations: about 55 ns a row, against 2.4-2.9 ns a
# node-row of evaluation, on 2 cores (100k rows of 24 binary variables in
# 775-row chunks, and a 921-node circuit on 19417 rows of 16)
_COLLAPSE_COST = 20


class ModelParseError(ValueError):
    """Raised when a serialized model cannot be parsed."""


class InvalidCircuitError(ValueError):
    """Raised when a deserialized circuit fails validation."""

    def __init__(self, violations):
        super().__init__("invalid circuit: " + "; ".join(violations))
        self.violations = list(violations)


# json's own encoder, as json.dumps(sort_keys=True, separators=(",", ":")) writes
_json_value = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_chain = itertools.chain.from_iterable


def _require_types(values, types, what):
    """Return the set of the values' types; raise TypeError unless each is in
    ``types``.  JSON bools are not integers and strings are not numbers."""
    found = set(map(type, values))
    if not found <= types:
        bad = next(v for v in values if type(v) not in types)
        raise TypeError(f"expected {what}, got {bad!r}")
    return found


def _is_number(value) -> bool:
    """A real number, numpy scalars included; bools are not numbers here."""
    # the common types first: an ABC isinstance check costs about 1 us
    kind = type(value)
    if kind is float or kind is int:
        return True
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
    of a ``_cumulative`` table: the count of the column's entries ``<= u``,
    in the smallest unsigned type that holds it."""
    if len(cumulative) == 1:  # two positions: the compare is the count
        return (cumulative[0].take(index) <= u).view(np.uint8)
    hits = cumulative.take(index, axis=1) <= u
    # an intp sum over axis 0 of a bool array is several times slower
    return np.add.reduce(hits, axis=0, dtype=np.min_scalar_type(len(cumulative)))


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


def _float_params(node):
    """``node`` with its sum weights or leaf parameters as floats; JSON reads
    a number written without a point or exponent as an int."""
    if isinstance(node, SumNode):
        return SumNode(node.children, tuple(map(float, node.weights)))
    if isinstance(node, ProductNode):
        return node
    if isinstance(node.dist, Multinomial):
        return LeafNode(node.var, Multinomial(tuple(map(float, node.dist.probs))))
    return LeafNode(node.var, Gaussian(float(node.dist.mu), float(node.dist.sigma)))


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
        self._plan = None

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return sum(
            len(n.children) for n in self.nodes if not isinstance(n, LeafNode)
        )

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> list:
        """Return a list of violation messages; empty iff the circuit is valid.

        Scopes are computed in the same pass, as int bitmasks: bit v for
        schema variable v, and one bit above those per distinct
        out-of-schema leaf variable, so masks compare as sets of variables.
        """
        violations = []
        n = len(self.nodes)
        n_vars = len(self.schema)
        if not (0 <= self.root < n):
            return [f"root index {self.root} out of range"]

        schema = self.schema
        var_bits = [1 << v for v in range(n_vars)]
        extra_bits = {}  # out-of-schema leaf variable -> its bit
        scopes = []
        indegree = [0] * n
        for i, node in enumerate(self.nodes):
            if isinstance(node, LeafNode):
                v, dist = node.var, node.dist
                if not (0 <= v < n_vars):
                    scopes.append(extra_bits.setdefault(v, 1 << (n_vars + len(extra_bits))))
                    violations.append(f"node {i}: leaf variable {v} out of schema")
                    continue
                scopes.append(var_bits[v])
                var = schema[v]
                if isinstance(dist, Multinomial):
                    probs = dist.probs
                    if var.kind != "cat":
                        violations.append(f"node {i}: multinomial leaf on continuous variable")
                    elif len(probs) != var.arity:
                        violations.append(f"node {i}: arity {len(probs)} != schema arity {var.arity}")
                    total = sum(probs)
                    if not math.isfinite(total):
                        violations.append(f"node {i}: non-finite multinomial prob total {total!r}")
                    elif abs(total - 1.0) > WEIGHT_TOL:
                        violations.append(f"node {i}: multinomial probs do not sum to 1")
                    if any(p < 0 for p in probs):
                        violations.append(f"node {i}: negative multinomial prob")
                elif isinstance(dist, Gaussian):
                    if var.kind != "cont":
                        violations.append(f"node {i}: gaussian leaf on categorical variable")
                    if not (math.isfinite(dist.mu) and math.isfinite(dist.sigma)):
                        violations.append(f"node {i}: non-finite mu or sigma")
                    if dist.sigma <= 0:
                        violations.append(f"node {i}: nonpositive sigma")
                else:
                    violations.append(f"node {i}: unknown leaf distribution")
                continue

            if len(node.children) < 1:
                violations.append(f"node {i}: no children")
            # over the children that precede the node: their union, whether
            # two share a variable (A2) and whether two differ (A1)
            scope, first, overlap, differ = 0, None, False, False
            for c in node.children:
                if not (0 <= c < n):
                    violations.append(f"node {i}: child {c} out of range")
                elif c >= i:
                    violations.append(f"node {i}: child {c} does not precede parent (cycle risk)")
                else:
                    indegree[c] += 1
                    s = scopes[c]
                    overlap = overlap or bool(scope & s)
                    if first is None:
                        first = s
                    elif s != first:
                        differ = True
                    scope |= s
            scopes.append(scope)

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
                if differ:
                    violations.append(f"node {i}: sum children have differing scopes (A1)")
            elif isinstance(node, ProductNode) and overlap:
                violations.append(f"node {i}: product children overlap in scope (A2)")

        roots = [i for i in range(n) if indegree[i] == 0]
        if roots != [self.root]:
            extra = [i for i in roots if i != self.root]
            if extra:
                violations.append(f"nodes {extra} are unreachable (not single-rooted)")
            if self.root not in roots:
                violations.append(f"root {self.root} has incoming edges")
        if scopes[self.root] != (1 << n_vars) - 1:
            violations.append("root scope does not cover all variables")
        return violations

    # ------------------------------------------------------------------
    # inference

    def _compiled(self):
        """The circuit's compiled form for evaluation and sampling, built on first use.

        Every node gets a slot in a ``(slots, rows)`` table: leaves first,
        grouped by variable, the variables ordered by (kind, arity, index),
        then the inner nodes grouped by step.  Leaves sit at step 0; a
        product takes the first odd step, and a sum the first even step,
        after the steps of all its children.  So steps
        alternate between products and sums, each group fills one
        contiguous block of slots from slots below it, and a node waits
        for its children only.

        One pass over the nodes finds each node's step and frontier (the
        slots of the sums and leaves it reaches through product edges only,
        in order; itself for a sum or a leaf).  Each leaf block, a run of
        variables of one kind and arity, is then stacked once, and one loop
        over the steps builds each group and a sum group's sampler entry.
        Returns ``(root_slot, chunk, leaves, groups, draws)``:

        - ``leaves``: per variable, ``(v, lo, hi, stacked)``, its block of
          slots and its rows of its leaf block: a ``CategoricalTable`` of
          ``(k, arity)`` log probabilities, or a ``Gaussian`` of ``(k, 1)``
          mu/sigma columns, views of the block's one log-probability array
          or of its mu and sigma vectors;
        - ``groups``: per nonempty step, ``(lo, hi, children,
          log_weights)``.  For a product group ``children`` is the CSR form
          of its node-by-slot matrix of ones, ``(indptr, indices, ones)``:
          node ``k``'s child slots are ``indices[indptr[k]:indptr[k + 1]]``
          in order, both index arrays are ``intp`` as the kernel wants one
          index dtype, and ``log_weights`` is None.  For a sum group
          ``children`` is a ``(width, nodes)`` array of child slots by
          position, ``width`` at least 2, and ``log_weights`` the matching
          ``(width, nodes)`` log weights; a sum with fewer children repeats
          its first child with weight 0;
        - ``draws``, the sampler's view, ``(indptr, indices, starts, sums,
          blocks, leaf_var)``.  ``indptr``/``indices`` is the CSR form of
          each slot's frontier.  ``sums`` holds per sum group ``(lo,
          cumulative, firsts, sizes)``: the ``(width - 1, nodes)``
          ``_cumulative`` table of its weights, and the frontier's start
          and length of each child by flat (position, node) index,
          ``sizes`` None when every length is 1.  ``blocks`` holds per leaf
          block ``(lo, table)``: a ``(arity - 1, leaves)`` ``_cumulative``
          table of the probs whose logs the variables read, or the
          ``Gaussian`` of mu/sigma vectors whose rows they read.
          ``starts`` is the first slot of each block, then of each sum
          group, then the slot count; ``leaf_var`` each leaf slot's
          variable.
        """
        if self._plan is None:
            step = [0] * len(self.nodes)
            # per node, the sums and leaves it reaches through product edges only
            frontier = [None] * len(self.nodes)
            by_var, by_step = {}, {}
            for i, node in enumerate(self.nodes):
                if isinstance(node, LeafNode):
                    by_var.setdefault(node.var, []).append(i)
                    frontier[i] = (i,)
                    continue
                if not node.children or not 0 <= min(node.children) <= max(node.children) < i:
                    raise ValueError(f"node {i}: children {node.children} do not precede it")
                last = max(step[c] for c in node.children)
                # odd steps for products, even ones for sums
                step[i] = last + 1 + (last % 2 != isinstance(node, SumNode))
                by_step.setdefault(step[i], []).append(i)
                frontier[i] = ((i,) if isinstance(node, SumNode)
                               else list(_chain(map(frontier.__getitem__, node.children))))

            def kind(v):
                """Categorical leaves by arity first, then the Gaussians."""
                dist = self.nodes[by_var[v][0]].dist
                return (0, dist.arity) if isinstance(dist, Multinomial) else (1, 0)

            variables = sorted(by_var, key=lambda v: (kind(v), v))
            order = [i for v in variables for i in by_var[v]]
            order += [i for s in sorted(by_step) for i in by_step[s]]
            slot_of = np.empty(len(order), dtype=np.intp)
            slot_of[order] = np.arange(len(order))

            leaves, blocks, lo = [], [], 0
            for _, run in itertools.groupby(variables, key=kind):
                run = list(run)
                dists = [self.nodes[i].dist for v in run for i in by_var[v]]
                gaussian = isinstance(dists[0], Gaussian)
                if gaussian:
                    table = Gaussian(np.array([d.mu for d in dists]),
                                     np.array([d.sigma for d in dists]))
                else:
                    probs = np.array([d.probs for d in dists])
                    with np.errstate(divide="ignore"):
                        log_probs = np.log(probs)
                    table = _cumulative(probs.T)
                first = lo
                blocks.append((first, table))
                for v in run:
                    rows = slice(lo - first, lo - first + len(by_var[v]))
                    stacked = (Gaussian(table.mu[rows, None], table.sigma[rows, None]) if gaussian
                               else CategoricalTable(log_probs[rows]))
                    leaves.append((v, lo, lo + len(by_var[v]), stacked))
                    lo += len(by_var[v])

            reach = [frontier[i] for i in order]
            indptr = np.cumsum([0, *map(len, reach)], dtype=np.intp)
            indices = slot_of.take(np.fromiter(_chain(reach), np.intp, indptr[-1]))
            sizes = np.diff(indptr)
            groups, sums = [], []
            for s, ids in sorted(by_step.items()):
                nodes = [self.nodes[i] for i in ids]
                if s % 2 == 0:
                    width = max(2, *(len(node.children) for node in nodes))
                    pad = [(width - len(node.children)) for node in nodes]
                    children = slot_of[[list(node.children) + [node.children[0]] * k
                                        for node, k in zip(nodes, pad)]].T
                    weights = np.array([list(node.weights) + [0.0] * k
                                        for node, k in zip(nodes, pad)]).T
                    with np.errstate(divide="ignore"):
                        log_weights = np.log(weights)
                    # by flat (position, node) index: where each child's
                    # frontier starts in ``indices`` and how long it is
                    counts = sizes.take(children).ravel()
                    sums.append((lo, _cumulative(weights), indptr.take(children).ravel(),
                                 None if (counts == 1).all() else counts))
                else:
                    child_slots = slot_of[[c for node in nodes for c in node.children]]
                    child_ptr = np.cumsum([0, *(len(node.children) for node in nodes)],
                                          dtype=np.intp)
                    children = (child_ptr, child_slots, np.ones(len(child_slots)))
                    log_weights = None
                groups.append((lo, lo + len(ids), children, log_weights))
                lo += len(ids)

            starts = np.array([b[0] for b in blocks] + [s[0] for s in sums] + [len(order)],
                              dtype=np.int64)
            leaf_var = np.repeat([leaf[0] for leaf in leaves],
                                 [leaf[2] - leaf[1] for leaf in leaves]).astype(np.int64)
            chunk = max(1, _CHUNK_CELLS // len(self.nodes))
            # assigned whole, so other threads never see it half built
            self._plan = (slot_of[self.root], chunk, leaves, groups,
                          (indptr, indices, starts, sums, blocks, leaf_var))
        return self._plan

    def _evaluate(self, columns, n, index=None):
        """Root log values for ``n`` rows; ``columns[v]`` holds variable v's
        values, ``None`` (marginalised) or an ``(lo, hi)`` interval.  The
        caller has checked them: no NaN, and a categorical variable's are
        codes of its levels.  With ``index``, ``columns`` is a ``(vars,
        rows)`` array whose column ``index[i]`` is row ``i``; each chunk
        gathers its rows whole, as rows of ``columns.T``.

        Rows go through in chunks, so the table holds ``slots x chunk``
        floats whatever ``n`` is.  It is allocated once per call; a shorter
        last chunk uses the front of it as a contiguous ``(slots, width)``
        table.  Per chunk, each variable's leaves take one ``leaf_log_pdf``
        call, or ``leaf_log_mass`` for an interval, which writes into their
        block of the table through ``out=`` (or 0 when marginalised).  Then
        each group, in step order, is one vectorised step, on a 1-D view of
        the table when the chunk has one row.  A product group zeroes its
        block and calls ``csr_matvecs``, the compiled kernel behind
        ``csr_matrix @ table``, on its CSR arrays, which adds each node's
        children in order into the block.  A sum group gathers its children by position and adds the
        log weights; then it takes the max over positions, adds
        ``exp(term - max)`` over positions in order and adds the max back to
        the log (a sum whose terms are all -inf gives -inf, as ``logsumexp``
        does).  Each step is the same arithmetic whatever the chunk's row
        count, so a row's value does not depend on the batch it came in.
        """
        root_slot, chunk, leaves, groups, _ = self._compiled()
        # here, not at module level: scipy.sparse adds ~15 ms to importing
        # softpc, and only evaluation needs it
        from scipy.sparse import _sparsetools

        matvecs = _sparsetools.csr_matvecs
        n_slots = len(self.nodes)
        out = np.empty(n)
        # the table for every chunk; csr_matvecs needs a contiguous one
        buf = np.empty((n_slots, chunk if n > chunk else n))
        # the log of a zero mass is -inf; a bound or point near the float
        # limit standardises to +-inf, which gives the leaf its limit
        # (inf - inf or 0 * inf on the way, in leaf_log_mass)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for first in range(0, n, chunk):
                rows = slice(first, min(first + chunk, n))
                width = rows.stop - first
                vals = buf
                if width < buf.shape[1]:
                    vals = buf.reshape(-1)[:n_slots * width].reshape(n_slots, width)
                batch, at = columns, rows
                if index is not None:
                    # indexing, not take: take copies a matrix that is not
                    # C-contiguous whole first
                    batch, at = columns.T[index[rows]].T, slice(None)
                for v, lo, hi, dist in leaves:
                    entry = batch[v]
                    if entry is None:
                        vals[lo:hi] = 0.0
                    elif isinstance(entry, tuple):
                        leaf_log_mass(dist, *entry, out=vals[lo:hi])
                    else:
                        leaf_log_pdf(dist, entry[at], out=vals[lo:hi])
                # one row: a 1-D view, so no ufunc broadcasts over columns of one
                table = vals.reshape(-1) if width == 1 else vals
                for lo, hi, children, log_weights in groups:
                    block = table[lo:hi]
                    if log_weights is None:
                        block.fill(0.0)
                        # the kernel behind ``csr_matrix @ table``, writing
                        # straight into the group's block of the table
                        matvecs(hi - lo, n_slots, width, *children, table, block)
                        continue
                    terms = table.take(children, axis=0)
                    terms += log_weights if width == 1 else log_weights[:, :, None]
                    top = np.maximum(terms[0], _LOG_FLOOR)  # an all -inf sum stays -inf
                    for j in range(1, len(terms)):
                        np.maximum(top, terms[j], out=top)
                    terms -= top
                    np.exp(terms, out=terms)
                    # one add per position, not np.add.reduce: that sums a
                    # group of one node and one row pairwise, in another order
                    total = np.add(terms[0], terms[1], out=block)
                    for j in range(2, len(terms)):
                        total += terms[j]
                    np.log(total, out=total)
                    total += top
                out[rows] = vals[root_slot]
        return out

    def log_density(self, x):
        """Log density of one full assignment (1-d) or a batch (2-d).

        When every variable is categorical, a batch goes through the
        circuit once per distinct row.  Each row's codes fold into one int64
        key in mixed radix, ``codes @ estimators.key_places(arities)``; a
        schema whose arities multiply past ``2**62`` (more than 62 binary
        variables) is not keyed.  ``estimators.distinct`` groups the keys,
        the distinct rows are evaluated and their values scattered back to
        every row, bit for bit what evaluating each row gives, since a
        row's value does not depend on its batch.  That is done only where
        it saves work.  ``_COLLAPSE_COST`` is what gathering a row and
        scattering its value back costs, in node evaluations (20,
        measured); a circuit of no more nodes is not keyed, and once the
        keys are grouped the distinct rows are evaluated only if the
        repeated ones save more node evaluations than that cost over all
        rows,
        ``(n - m) * nodes > _COLLAPSE_COST * n`` for ``m`` distinct of
        ``n``.  A batch with a continuous variable is evaluated as given.
        A NaN, a categorical value that is not a level of its variable or
        an int past the float range is a ``ValueError``.
        """
        try:
            arr = np.asarray(x, dtype=float)
        except OverflowError:  # an int past the float range
            raise ValueError("value out of range of a float") from None
        if arr.ndim not in (1, 2):
            raise ValueError(f"expected one row (1-d) or a batch of rows (2-d), got {arr.ndim}-d")
        rows = np.atleast_2d(arr)
        n = rows.shape[0]
        if rows.shape[1] != len(self.schema):
            raise ValueError("row length does not match schema")
        # checked here once, so the evaluator's leaf calls check nothing; a
        # chunk of rows at a time, so the checks' temporaries stay small
        # next to the evaluator's one-chunk table
        step = self._compiled()[1]
        blocks = [rows[first:first + step] for first in range(0, n, step)]
        nan = np.zeros(rows.shape[1], dtype=bool)
        for block in blocks:
            nan |= np.isnan(block).any(axis=0)
        if nan.any():
            raise ValueError(f"NaN value for variable {int(nan.argmax())}")
        cats = [v for v, var in enumerate(self.schema) if var.kind == "cat"]
        arities = [self.schema[v].arity for v in cats]
        all_cat = len(cats) == rows.shape[1]
        # a categorical batch is keyed, so that repeated rows share one evaluation
        places = None
        if all_cat and n > 1 and self.n_nodes > _COLLAPSE_COST:
            places = key_places(arities)
        keys = None if places is None else np.empty(n, dtype=np.int64)
        for first, block in zip(range(0, n, step), blocks):
            codes = categorical_codes(block if all_cat else block[:, cats], arities)
            if keys is not None:
                np.matmul(codes, places, out=keys[first:first + len(block)])
        index = None
        if keys is not None:
            index, group = distinct(keys)
            keys = None  # freed before the evaluation
            if (n - len(index)) * self.n_nodes <= _COLLAPSE_COST * n:
                index = group = None
        if index is None:
            out = self._evaluate(rows.T, n)
        else:
            out = self._evaluate(rows.T, len(index), index).take(group)
        return float(out[0]) if arr.ndim == 1 else out

    def log_marginal(self, query) -> float:
        """Log probability of a partial query.

        ``query`` is a sequence with one entry per variable: ``None`` for a
        marginalized-out variable, an int (categorical) or float
        (continuous) for an observed value, or an ``(lo, hi)`` pair for a
        closed interval over a continuous variable.  Values and bounds must
        be real numbers within the float range; a bool, a string or an int
        past that range is a ``ValueError`` that names its variable.
        """
        if len(query) != len(self.schema):
            raise ValueError("query length does not match schema")
        columns = []
        try:
            for v, (entry, var) in enumerate(zip(query, self.schema)):
                if isinstance(entry, tuple):
                    if var.kind != "cont":
                        raise ValueError(f"interval query on categorical variable {v}")
                    lo, hi = entry
                    if not (_is_number(lo) and _is_number(hi)):
                        raise ValueError(f"non-numeric interval bound on variable {v}: {entry!r}")
                    if math.isnan(lo) or math.isnan(hi):
                        raise ValueError(f"NaN value for variable {v}")
                    if lo > hi:
                        raise ValueError(f"interval with lo > hi on variable {v}")
                elif entry is not None:
                    if not _is_number(entry):
                        raise ValueError(f"non-numeric value for variable {v}: {entry!r}")
                    if math.isnan(entry):
                        raise ValueError(f"NaN value for variable {v}")
                    # categorical_codes' rule on a scalar: a numpy call per query
                    # would cost more than the checks of all its entries
                    if var.kind == "cat" and not (0 <= entry < var.arity and entry == int(entry)):
                        raise ValueError(
                            f"categorical value out of range for variable {v}: {entry!r}")
                    entry = np.array([entry], dtype=float)
                columns.append(entry)
        except OverflowError:  # an int past the float range, from math.isnan or np.array
            raise ValueError(f"value out of range of a float for variable {v}") from None
        return float(self._evaluate(columns, 1)[0])

    # ------------------------------------------------------------------
    # sampling

    def sample(self, rng, n: int):
        """Draw ``n`` independent full assignments as an ``(n, vars)`` array.

        Ancestral sampling on the compiled form, top-down, visiting sum
        groups and leaf blocks only.  A row that reaches a node is the int64
        key ``slot << b | row``, where ``b`` is the bit length of ``n - 1``,
        so that a shift and a mask split it again.  Products draw nothing:
        each slot's frontier, the sums and leaves it reaches through product
        edges only, stands in for it.  The root's frontier times the ``n``
        rows starts the pass; then each sum group, last step first, takes
        the keys in its block of slots, draws one child per row by weight
        and sends the row to that child's frontier.  Each batch of new keys
        is sorted and split by one ``searchsorted`` into the blocks below
        it.  Last, each leaf block (the categorical leaves of one arity, or
        all the Gaussians) draws values for the rows that reached it, in
        chunks of ``_SAMPLE_CELLS`` table cells (at least 256 pairs), and
        scatters them into the output.  In a decomposable circuit a row reaches a node at most
        once, so the keys are unique; where they are not, sorting integers
        is still deterministic.

        Draw order from ``rng``: one ``rng.random(pairs)`` per sum group
        that rows reach, last step first, counted against the group's
        cumulative weights; then, per leaf block in slot order and per chunk
        of its keys in sorted order, one ``rng.random(pairs)`` counted
        against the block's cumulative probabilities, or one
        ``rng.standard_normal(pairs)`` for the Gaussian block.  Consecutive
        calls continue one stream, so the chunk size does not change the
        draws.  The sum groups are the even steps of ``_compiled`` and the
        leaf blocks its slot order, so a seeded sample follows that layout:
        regrouping the nodes changes the draws, though not their
        distribution.
        """
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError(f"expected a non-negative integer number of rows, got {n!r}")
        n = int(n)
        # an int64 shift, so keys are int64 whatever the dtype of the slots
        shift = np.int64(max(n - 1, 0).bit_length())
        mask = (np.int64(1) << shift) - 1
        root_slot, _, _, _, (indptr, indices, starts, sums, blocks, leaf_var) = self._compiled()
        bounds = starts << shift
        reach = indices.astype(np.int64) << shift
        pending = [[] for _ in range(len(starts) - 1)]

        def push(keys):
            keys.sort()
            cuts = keys.searchsorted(bounds)
            hit = (cuts[1:] > cuts[:-1]).nonzero()[0].tolist()
            cuts = cuts.tolist()
            for b in hit:
                pending[b].append(keys[cuts[b]:cuts[b + 1]])

        push((reach[indptr[root_slot]:indptr[root_slot + 1], None] + np.arange(n)).ravel())
        for b in range(len(pending) - 1, len(blocks) - 1, -1):
            parts = pending[b]
            if not parts:
                continue
            lo, cumulative, firsts, sizes = sums[b - len(blocks)]
            keys = parts[0] if len(parts) == 1 else np.concatenate(parts)
            node, row = (keys >> shift) - lo, keys & mask
            pick = _inverse_cdf(cumulative, node, rng.random(row.size)).astype(np.intp)
            at = pick * cumulative.shape[1] + node
            if sizes is None:  # each child a sum or a leaf, its own frontier
                push(reach.take(firsts.take(at)) + row)
                continue
            # each row on to the frontier of the child drawn for it
            first, counts = firsts.take(at), sizes.take(at)
            ends = counts.cumsum()  # at least one key, so ends[-1] exists
            push(reach.take(np.arange(ends[-1]) + (first - ends + counts).repeat(counts))
                 + row.repeat(counts))

        out = np.empty((len(self.schema), n))
        # key + delta[slot] is the leaf's variable times n plus the row: its
        # index in the flat output
        delta = leaf_var * n - (np.arange(len(leaf_var), dtype=np.int64) << shift)
        for b, (lo, table) in enumerate(blocks):
            parts = pending[b]
            if not parts:
                continue
            gaussian = isinstance(table, Gaussian)
            # pairs per chunk; past 64 table rows a chunk keeps 256 pairs, so
            # that wide tables do not loop over a few pairs at a time
            step = max(1, _SAMPLE_CELLS // (1 if gaussian else min(max(1, len(table)), 64)))
            # small blocks in one chunk; large ones part by part, uncopied
            if sum(part.size for part in parts) <= step:
                parts = [parts[0] if len(parts) == 1 else np.concatenate(parts)]
            for keys in parts:
                for first in range(0, keys.size, step):
                    chunk = keys[first:first + step]
                    slot = chunk >> shift
                    leaf = slot - lo
                    if gaussian:
                        drawn = rng.standard_normal(chunk.size)
                        drawn *= table.sigma.take(leaf)
                        drawn += table.mu.take(leaf)
                    else:
                        drawn = _inverse_cdf(table, leaf, rng.random(chunk.size))
                    out.put(chunk + delta.take(slot), drawn)
        return out.T

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> str:
        """Serialize to the documented JSON text format (full precision).

        The text is ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``
        of the circuit's document, written directly: keys are sorted and
        numbers are written as their Python ``repr``.  Schema entries hold
        ``kind``, ``arity`` for categorical variables, and ``name`` when the
        variable has one.  A hand-built circuit with a NaN or infinite value
        gets ``NaN``, ``Infinity`` or ``-Infinity``, as ``json.dumps`` writes
        them.
        """
        ints, numbers = [self.root], []
        for node in self.nodes:
            if isinstance(node, SumNode):
                ints += node.children
                numbers += node.weights
            elif isinstance(node, ProductNode):
                ints += node.children
            else:
                ints.append(node.var)
                dist = node.dist
                numbers += dist.probs if isinstance(dist, Multinomial) else (dist.mu, dist.sigma)
        # repr writes an int or a finite float as json.dumps does; for anything
        # else (NaN or inf, numpy scalars, bools) json's encoder writes it
        plain = set(map(type, ints)) <= {int} and set(map(type, numbers)) <= {int, float}
        try:
            plain = plain and math.isfinite(sum(numbers))
        except OverflowError:  # an int too large for a float
            plain = False
        number = repr if plain else _json_value
        join = ",".join
        parts = []
        for node in self.nodes:
            if isinstance(node, SumNode):
                parts.append('{"children":[%s],"type":"sum","weights":[%s]}'
                             % (join(map(number, node.children)), join(map(number, node.weights))))
            elif isinstance(node, ProductNode):
                parts.append('{"children":[%s],"type":"prod"}' % join(map(number, node.children)))
            elif isinstance(node.dist, Multinomial):
                parts.append('{"dist":{"probs":[%s],"type":"multinomial"},"type":"leaf","var":%s}'
                             % (join(map(number, node.dist.probs)), number(node.var)))
            else:
                parts.append('{"dist":{"mu":%s,"sigma":%s,"type":"gaussian"},"type":"leaf","var":%s}'
                             % (number(node.dist.mu), number(node.dist.sigma), number(node.var)))
        schema = _json_value([v.to_dict() for v in self.schema])
        return '{"nodes":[%s],"root":%s,"schema":%s}' % (join(parts), number(self.root), schema)

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        """Parse and validate a serialized circuit.

        ``ModelParseError`` if ``text`` is not a circuit document, and
        ``InvalidCircuitError`` if the circuit it holds fails ``validate``:
        its ``violations`` list each rule broken.
        """
        circuit = cls._parse(text)
        violations = circuit.validate()
        if violations:
            raise InvalidCircuitError(violations)
        return circuit

    @classmethod
    def _parse(cls, text: str) -> "Circuit":
        """The circuit that ``text`` holds, not validated; ``ModelParseError``
        if it is not a circuit document, a document nested too deeply for
        ``json`` included."""
        try:
            doc = json.loads(text)
            schema = Schema([Variable.from_dict(d) for d in doc["schema"]])
            nodes, ints, numbers = [], [doc["root"]], []
            for nd in doc["nodes"]:
                t = nd["type"]
                if t == "sum":
                    ints += nd["children"]
                    numbers += nd["weights"]
                    nodes.append(SumNode(tuple(nd["children"]), tuple(nd["weights"])))
                elif t == "prod":
                    ints += nd["children"]
                    nodes.append(ProductNode(tuple(nd["children"])))
                elif t == "leaf":
                    dd = nd["dist"]
                    if dd["type"] == "multinomial":
                        numbers += dd["probs"]
                        dist = Multinomial(tuple(dd["probs"]))
                    elif dd["type"] == "gaussian":
                        numbers += (dd["mu"], dd["sigma"])
                        dist = Gaussian(dd["mu"], dd["sigma"])
                    else:
                        raise ValueError(f"unknown dist type {dd['type']!r}")
                    ints.append(nd["var"])
                    nodes.append(LeafNode(nd["var"], dist))
                else:
                    raise ValueError(f"unknown node type {t!r}")
            _require_types(ints, {int}, "an integer")
            if int in _require_types(numbers, {int, float}, "a number"):
                nodes = [_float_params(node) for node in nodes]
            circuit = cls(nodes, doc["root"], schema)
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ModelParseError(f"cannot parse model: {exc}") from exc
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
