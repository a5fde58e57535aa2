import functools
import json
import math

import numpy as np
import pytest
from scipy.special import log_ndtr, logsumexp

from softpc import clustering, estimators, learner
from softpc.circuit import Circuit, LeafNode, ProductNode, SumNode
from softpc.estimators import Gaussian, Multinomial, leaf_log_mass, leaf_log_pdf
from softpc.independence import discretize, weighted_chi2
from softpc.schema import Schema, Variable


def fig1_circuit() -> Circuit:
    """Balanced two-component mixture of independent bivariate Gaussians."""
    nodes = [
        LeafNode(0, Gaussian(-0.5, 1.0)),
        LeafNode(1, Gaussian(-2.0, 0.2)),
        LeafNode(0, Gaussian(0.5, 1.0)),
        LeafNode(1, Gaussian(2.0, 0.2)),
        ProductNode((0, 1)),
        ProductNode((2, 3)),
        SumNode((4, 5), (0.5, 0.5)),
    ]
    return Circuit(nodes, 6, Schema.continuous(2))


def random_binary_circuit(n_vars: int, rng, max_depth: int = 4) -> Circuit:
    """A random valid circuit over n_vars binary variables."""
    nodes = []

    def rand_mult():
        p = rng.uniform(0.05, 0.95)
        return Multinomial((p, 1.0 - p))

    def build(scope, depth):
        if len(scope) == 1:
            nodes.append(LeafNode(int(scope[0]), rand_mult()))
            return len(nodes) - 1
        choice = rng.random()
        if depth >= max_depth or (choice < 0.4 and len(scope) >= 2):
            # product over a random 2-way scope split
            k = rng.integers(1, len(scope))
            perm = rng.permutation(scope)
            left, right = sorted(perm[:k]), sorted(perm[k:])
            cl = build(list(left), depth + 1) if depth < max_depth else _factorize(left)
            cr = build(list(right), depth + 1) if depth < max_depth else _factorize(right)
            nodes.append(ProductNode((cl, cr)))
        else:
            k = int(rng.integers(2, 4))
            children = tuple(build(scope, depth + 1) for _ in range(k))
            w = rng.dirichlet(np.ones(k))
            w = w / w.sum()
            nodes.append(SumNode(children, tuple(w.tolist())))
        return len(nodes) - 1

    def _factorize(scope):
        ids = []
        for v in scope:
            nodes.append(LeafNode(int(v), rand_mult()))
            ids.append(len(nodes) - 1)
        if len(ids) == 1:
            return ids[0]
        nodes.append(ProductNode(tuple(ids)))
        return len(nodes) - 1

    root = build(list(range(n_vars)), 0)
    return Circuit(nodes, root, Schema.binary(n_vars))


def small_mixed_circuit() -> Circuit:
    """A named mixed schema (ternary, continuous, binary) under a two-way mixture."""
    schema = Schema(
        [Variable("cat", 3, name="colour"), Variable("cont", name="size"), Variable("cat", 2)]
    )
    nodes = [
        LeafNode(0, Multinomial((0.2, 0.5, 0.3))),
        LeafNode(1, Gaussian(-1.0, 0.5)),
        LeafNode(2, Multinomial((0.9, 0.1))),
        LeafNode(1, Gaussian(2.0, 1.5)),
        LeafNode(2, Multinomial((0.25, 0.75))),
        ProductNode((0, 1, 2)),
        ProductNode((0, 3, 4)),
        SumNode((5, 6), (0.4, 0.6)),
    ]
    return Circuit(nodes, 7, schema)


def random_mixed_circuit(rng, n_vars: int = 5, max_depth: int = 3) -> Circuit:
    """A random valid circuit over binary, ternary and continuous variables;
    variable 0 is ternary and variable 1 continuous.

    Some sum children get weight 0, and the last level of every ternary
    variable has probability 0 in all its leaves, so rows using it have
    log density -inf.
    """
    schema = Schema(
        [Variable("cat", 3), Variable("cont")]
        + [
            Variable("cont") if rng.random() < 0.4 else Variable("cat", int(rng.integers(2, 4)))
            for _ in range(n_vars - 2)
        ]
    )
    nodes = []

    def leaf(v):
        var = schema[v]
        if var.kind == "cont":
            dist = Gaussian(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0)))
        else:
            p = rng.dirichlet(np.ones(var.arity))
            if var.arity == 3:
                p[2] = 0.0
            dist = Multinomial(tuple((p / p.sum()).tolist()))
        nodes.append(LeafNode(int(v), dist))
        return len(nodes) - 1

    def build(scope, depth):
        deep = depth >= max_depth or rng.random() < 0.5
        if len(scope) == 1 and deep:
            return leaf(scope[0])
        if len(scope) > 1 and deep:
            k = int(rng.integers(1, len(scope)))
            perm = rng.permutation(scope)
            children = (build(sorted(perm[:k]), depth + 1), build(sorted(perm[k:]), depth + 1))
            nodes.append(ProductNode(children))
        else:
            k = int(rng.integers(2, 4))
            children = tuple(build(scope, depth + 1) for _ in range(k))
            w = rng.dirichlet(np.ones(k))
            if rng.random() < 0.4:
                w[0] = 0.0
            nodes.append(SumNode(children, tuple((w / w.sum()).tolist())))
        return len(nodes) - 1

    root = build(list(range(n_vars)), 0)
    return Circuit(nodes, root, schema)


def log_probs(probs) -> np.ndarray:
    """The log of categorical probabilities, a level without mass at -inf:
    the array that ``leaf_log_pdf`` reads a categorical leaf as."""
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(probs))


def reference_leaf_log_pdf(dist, x):
    """``leaf_log_pdf`` of one leaf at values ``x``: a ``Multinomial`` as
    the array of its log probabilities, at the codes that
    ``categorical_codes`` makes of ``x``."""
    if isinstance(dist, Multinomial):
        return leaf_log_pdf(log_probs(dist.probs), estimators.categorical_codes(x, dist.arity))
    return leaf_log_pdf(dist, x)


def reference_log_value(circuit: Circuit, query) -> float:
    """Log value of one query, evaluated node by node by recursion.

    Entries are as in ``Circuit.log_marginal``: ``None``, a point, or an
    ``(lo, hi)`` interval.  Leaves use ``reference_leaf_log_pdf`` one at a time; an
    interval takes the tail on its own side of the leaf's mean, through
    ``log_ndtr``: ``log P(X > lo) + log1p(-P(X > hi) / P(X > lo))`` when
    its midpoint lies above the mean, the CDFs ``log P(X < hi) +
    log1p(-P(X < lo) / P(X < hi))`` otherwise.  Sums use ``np.logaddexp``;
    this is the reference the batched evaluator is pinned to.
    """

    def leaf_value(node):
        entry = query[node.var]
        if entry is None:
            return 0.0
        if isinstance(entry, tuple):
            lo, hi = ((b - node.dist.mu) / node.dist.sigma for b in entry)
            if lo + hi > 0:  # above the mean both CDFs are near 1: take the upper tails
                outer, inner = float(log_ndtr(-lo)), float(log_ndtr(-hi))
            else:
                outer, inner = float(log_ndtr(hi)), float(log_ndtr(lo))
            if inner >= outer:
                return -math.inf
            return outer + math.log1p(-math.exp(inner - outer))
        return reference_leaf_log_pdf(node.dist, entry)

    @functools.lru_cache(maxsize=None)
    def value(i):
        node = circuit.nodes[i]
        if isinstance(node, LeafNode):
            return leaf_value(node)
        if isinstance(node, ProductNode):
            return sum(value(c) for c in node.children)
        terms = [
            (math.log(w) if w > 0 else -math.inf) + value(c)
            for c, w in zip(node.children, node.weights)
        ]
        return functools.reduce(np.logaddexp, terms)

    return float(value(circuit.root))


def reference_to_json(circuit: Circuit) -> str:
    """The JSON text as ``json.dumps`` writes the circuit's document, one dict
    per node; the reference ``Circuit.to_json`` is pinned to byte for byte."""
    nodes = []
    for node in circuit.nodes:
        if isinstance(node, SumNode):
            nodes.append({"type": "sum", "children": list(node.children),
                          "weights": list(node.weights)})
        elif isinstance(node, ProductNode):
            nodes.append({"type": "prod", "children": list(node.children)})
        else:
            if isinstance(node.dist, Multinomial):
                dist = {"type": "multinomial", "probs": list(node.dist.probs)}
            else:
                dist = {"type": "gaussian", "mu": node.dist.mu, "sigma": node.dist.sigma}
            nodes.append({"type": "leaf", "var": node.var, "dist": dist})
    doc = {"schema": [v.to_dict() for v in circuit.schema], "root": circuit.root, "nodes": nodes}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def reference_validate(circuit: Circuit) -> list:
    """Violation messages computed with frozenset scopes, built for every
    node first; the reference ``Circuit.validate`` is pinned to, list and
    order."""
    scopes = []
    for node in circuit.nodes:
        if isinstance(node, LeafNode):
            scopes.append(frozenset((node.var,)))
        else:
            s = frozenset()
            for c in node.children:
                if 0 <= c < len(scopes):
                    s |= scopes[c]
            scopes.append(s)

    violations = []
    n = len(circuit.nodes)
    n_vars = len(circuit.schema)
    if not (0 <= circuit.root < n):
        return [f"root index {circuit.root} out of range"]
    indegree = [0] * n
    for i, node in enumerate(circuit.nodes):
        if isinstance(node, LeafNode):
            if not (0 <= node.var < n_vars):
                violations.append(f"node {i}: leaf variable {node.var} out of schema")
                continue
            var = circuit.schema[node.var]
            if isinstance(node.dist, Multinomial):
                if var.kind != "cat":
                    violations.append(f"node {i}: multinomial leaf on continuous variable")
                elif node.dist.arity != var.arity:
                    violations.append(f"node {i}: arity {node.dist.arity} != schema arity {var.arity}")
                total = sum(node.dist.probs)
                if not math.isfinite(total):
                    violations.append(f"node {i}: non-finite multinomial prob total {total!r}")
                elif abs(total - 1.0) > 1e-9:
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
            elif abs(total - 1.0) > 1e-9:
                violations.append(f"node {i}: sum weights total {total!r}, expected 1")
            if len({scopes[c] for c in node.children if 0 <= c < i}) > 1:
                violations.append(f"node {i}: sum children have differing scopes (A1)")
        elif isinstance(node, ProductNode):
            seen = set()
            for c in node.children:
                if not (0 <= c < i):
                    continue
                if seen & scopes[c]:
                    violations.append(f"node {i}: product children overlap in scope (A2)")
                    break
                seen |= scopes[c]

    roots = [i for i in range(n) if indegree[i] == 0]
    if roots != [circuit.root]:
        extra = [i for i in roots if i != circuit.root]
        if extra:
            violations.append(f"nodes {extra} are unreachable (not single-rooted)")
        if circuit.root not in roots:
            violations.append(f"root {circuit.root} has incoming edges")
    if scopes[circuit.root] != frozenset(range(n_vars)):
        violations.append("root scope does not cover all variables")
    return violations


def _reference_height_groups(circuit: Circuit):
    """Slots and groups of the height-grouped compiled form: leaves by
    variable with their parameters stacked, then inner nodes grouped by
    height (1 + the tallest child's) and kind, lowest first."""
    from scipy.sparse import csr_matrix

    height = [0] * len(circuit.nodes)
    by_var, by_group = {}, {}
    for i, node in enumerate(circuit.nodes):
        if isinstance(node, LeafNode):
            by_var.setdefault(node.var, []).append(i)
            continue
        height[i] = 1 + max(height[c] for c in node.children)
        by_group.setdefault((height[i], isinstance(node, SumNode)), []).append(i)
    order = [i for v in sorted(by_var) for i in by_var[v]]
    order += [i for key in sorted(by_group) for i in by_group[key]]
    slot_of = np.empty(len(order), dtype=np.intp)
    slot_of[order] = np.arange(len(order))

    leaves, lo = [], 0
    for v in sorted(by_var):
        dists = [circuit.nodes[i].dist for i in by_var[v]]
        if isinstance(dists[0], Multinomial):
            stacked = log_probs([d.probs for d in dists])
        else:
            stacked = Gaussian(np.array([[d.mu] for d in dists]), np.array([[d.sigma] for d in dists]))
        leaves.append((v, lo, lo + len(dists), stacked))
        lo += len(dists)

    groups = []
    for (_, is_sum), ids in sorted(by_group.items()):
        nodes = [circuit.nodes[i] for i in ids]
        if is_sum:
            width = max(len(node.children) for node in nodes)
            pad = [(width - len(node.children)) for node in nodes]
            children = slot_of[[list(node.children) + [node.children[0]] * k
                                for node, k in zip(nodes, pad)]].T
            weights = np.array([list(node.weights) + [0.0] * k for node, k in zip(nodes, pad)]).T
            with np.errstate(divide="ignore"):
                log_weights = np.log(weights)[:, :, None]
        else:
            counts = [len(node.children) for node in nodes]
            flat = slot_of[[c for node in nodes for c in node.children]]
            children = csr_matrix((np.ones(len(flat)), flat, np.cumsum([0] + counts)),
                                  shape=(len(nodes), len(circuit.nodes)))
            log_weights = None
        groups.append((lo, lo + len(ids), children, log_weights))
        lo += len(ids)
    return slot_of[circuit.root], leaves, groups


def reference_height_grouped(circuit: Circuit, columns, n: int) -> np.ndarray:
    """Root log values of ``n`` rows on the height-grouped compiled form.

    ``columns[v]`` is ``None``, an ``(lo, hi)`` interval or an array of n
    values.  The leaf layer takes one ``leaf_log_pdf`` call per variable on
    its stacked ``Gaussian`` or ``(k, arity)`` array of log probabilities,
    the latter at codes checked by ``categorical_codes``, or one ``leaf_log_mass``
    call for an interval; a product group is its CSR
    matrix of ones times the table, a sum group adds its log weights to
    its children gathered by position, takes the max over positions
    (floored at the smallest float), sums ``exp(term - max)`` over positions
    in order and adds the max back to the log.  This is how evaluation ran
    before its steps alternated between products and sums, and it is the
    reference that evaluation is pinned to, bit for bit.
    """
    root_slot, leaves, groups = _reference_height_groups(circuit)
    vals = np.empty((len(circuit.nodes), n))
    for v, lo, hi, dist in leaves:
        entry = columns[v]
        if entry is None:
            vals[lo:hi] = 0.0
        elif isinstance(entry, tuple):
            vals[lo:hi] = leaf_log_mass(dist, *entry)
        elif isinstance(dist, np.ndarray):
            vals[lo:hi] = leaf_log_pdf(dist, estimators.categorical_codes(entry, dist.shape[-1]))
        else:
            vals[lo:hi] = leaf_log_pdf(dist, entry)
    for lo, hi, children, log_weights in groups:
        if log_weights is None:
            vals[lo:hi] = children @ vals
        else:
            terms = vals[children]
            terms += log_weights
            top = terms.max(axis=0)
            np.maximum(top, np.finfo(float).min, out=top)
            terms -= top
            np.exp(terms, out=terms)
            total = vals[lo:hi]
            np.copyto(total, terms[0])
            for term in terms[1:]:
                total += term
            with np.errstate(divide="ignore"):
                np.log(total, out=total)
            total += top
    return vals[root_slot].copy()


def reference_sample(circuit: Circuit, rng, n: int) -> np.ndarray:
    """``n`` rows drawn top-down, one node at a time.

    Each node is visited once, parents first, with the rows that reach it
    from any parent: a sum sends each row to one child drawn by weight with
    ``rng.choice``, a product to all its children.  This is the sampler
    ``Circuit.sample`` ran before it worked on the compiled form; it is the
    reference the compiled sampler is pinned to.
    """
    out = np.empty((n, len(circuit.schema)))
    reach = {circuit.root: np.arange(n)}
    for i in range(circuit.root, -1, -1):
        rows = reach.pop(i, None)
        if rows is None:
            continue
        node = circuit.nodes[i]
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


def _reference_encode_rows(matrix, weights, scope, schema):
    # one-hot categorical columns, continuous ones standardized by their
    # weighted mean/std over every row; (n, d)
    matrix = np.asarray(matrix, dtype=float)
    weights = np.asarray(weights, dtype=float)
    blocks = []
    total = weights.sum()
    for v in scope:
        col = matrix[:, v]
        if schema.is_cat(v):
            k = schema[v].arity
            onehot = np.zeros((col.size, k))
            onehot[np.arange(col.size), col.astype(np.int64)] = 1.0
            blocks.append(onehot)
        else:
            mean = float(np.dot(weights, col) / total)
            var = float(np.dot(weights, (col - mean) ** 2) / total)
            std = np.sqrt(var) if var > 0 else 1.0
            blocks.append(((col - mean) / std)[:, None])
    return np.hstack(blocks)


def _reference_softmax_memberships(encoded, centroids, beta):
    # (n, d) rows against (k, d) centroids through one (n, k, d) difference tensor
    dists = np.linalg.norm(encoded[:, None, :] - centroids[None, :, :], axis=2)
    denom = dists.sum(axis=1, keepdims=True)
    safe = np.where(denom > 0, denom, 1.0)
    rel = beta * (1.0 - dists / safe)
    rel -= rel.max(axis=1, keepdims=True)
    resp = np.exp(rel)
    resp /= resp.sum(axis=1, keepdims=True)
    resp[denom[:, 0] == 0] = 1.0 / centroids.shape[0]
    return resp


def _reference_kmeanspp_init(encoded, weights, k, rng):
    n = encoded.shape[0]
    probs = weights / weights.sum()
    idx = [rng.choice(n, p=probs)]
    d2 = np.full(n, np.inf)
    for _ in range(1, k):
        d2 = np.minimum(d2, ((encoded - encoded[idx[-1]]) ** 2).sum(axis=1))
        mass = weights * d2
        if mass.sum() <= 0:
            idx.append(rng.choice(n, p=probs))
        else:
            idx.append(rng.choice(n, p=mass / mass.sum()))
    return encoded[idx].copy()


def reference_soft_kmeans(matrix, weights, scope, schema, k, beta, max_iter=100, rng=None):
    """Soft k-means with every row encoded and clustered on its own.

    This is the row-major loop ``soft_kmeans`` ran before it worked on
    distinct rows: every row, duplicates included, is one-hot encoded and
    standardized, seeded by weighted k-means++ and scored against all
    centroids through an ``(n, k, d)`` difference tensor.  The encoder, the
    seeding and the memberships are copied here, so the reference calls
    none of the code under test; it is what ``soft_kmeans`` is pinned to.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    k = min(k, n)
    encoded = _reference_encode_rows(matrix, weights, scope, schema)
    if k == 1:
        return np.ones((n, 1))

    centroids = _reference_kmeanspp_init(encoded, weights, k, rng)
    for _ in range(max_iter):
        resp = _reference_softmax_memberships(encoded, centroids, beta)
        eff = weights[:, None] * resp
        mass = eff.sum(axis=0)
        new_centroids = centroids.copy()
        for i in range(k):
            if mass[i] > clustering.COLLAPSE_TOL:
                new_centroids[i] = eff[:, i] @ encoded / mass[i]
            else:
                dists = np.linalg.norm(encoded - centroids[i], axis=1)
                new_centroids[i] = encoded[int(np.argmax(weights * dists))]
        shift = np.abs(new_centroids - centroids).max()
        centroids = new_centroids
        if shift < clustering.CENTROID_TOL:
            break
    return _reference_softmax_memberships(encoded, centroids, beta)


def reference_em_factorized(
    matrix, weights, scope, schema, k, max_iter=100, tol=1e-4, alpha=0.01, rng=None,
    init_membership=None, return_trace=False,
):
    """EM with one leaf fit and one ``reference_leaf_log_pdf`` call per component and variable.

    This is the loop ``em_factorized`` ran before its iterations became
    whole-matrix steps: ``fit_factorized`` drops weights below
    ``EPSILON_W`` and raises when none is left, which restarts the
    component from the heaviest row; it is the reference the matrix form
    is pinned to.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    matrix = np.asarray(matrix, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    k = min(k, n)
    if k == 1:
        comp = estimators.fit_factorized(matrix, weights, scope, schema, alpha)
        out = np.ones((n, 1)), clustering.FactorizedMixture(np.ones(1), [comp], tuple(scope))
        return (*out, []) if return_trace else out

    if init_membership is not None:
        resp = np.asarray(init_membership, dtype=float)
    else:
        resp = clustering.soft_kmeans(
            matrix, weights, scope, schema, k, beta=4.0, max_iter=10, rng=rng
        )
    k = resp.shape[1]

    mixture = None
    prev_ll = -np.inf
    ll_trace = []
    total_w = weights.sum()
    for _ in range(max_iter):
        eff = weights[:, None] * resp
        priors = eff.sum(axis=0) / total_w
        components = []
        for i in range(k):
            try:
                if priors[i] < clustering.COLLAPSE_TOL:
                    raise ValueError("collapsed component")
                comp = estimators.fit_factorized(matrix, eff[:, i], scope, schema, alpha)
            except ValueError:
                j = int(np.argmax(weights))
                comp = estimators.fit_factorized(
                    matrix[j : j + 1], np.ones(1), scope, schema, alpha
                )
                priors[i] = max(priors[i], clustering.COLLAPSE_TOL)
            components.append(comp)
        priors = priors / priors.sum()
        mixture = clustering.FactorizedMixture(priors, components, tuple(scope))

        joint = np.empty((n, k))
        for i in range(k):
            ll = np.zeros(n)
            for v, dist in zip(scope, components[i]):
                ll += reference_leaf_log_pdf(dist, matrix[:, v])
            joint[:, i] = np.log(priors[i]) + ll
        row_ll = logsumexp(joint, axis=1)
        resp = np.exp(joint - row_ll[:, None])
        ll = float(np.dot(weights, row_ll))
        ll_trace.append(ll)
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            break
        prev_ll = ll
    if return_trace:
        return resp, mixture, ll_trace
    return resp, mixture


def _allocating_softmax_memberships(encoded_t, centroids, beta):
    # one fresh (d, m) difference per centroid; reductions over the centroids by numpy
    k = centroids.shape[0]
    dists = np.empty((k, encoded_t.shape[1]))
    for i in range(k):
        diff = encoded_t - centroids[i][:, None]
        np.square(diff, out=diff)
        diff.sum(axis=0, out=dists[i])
    np.sqrt(dists, out=dists)
    denom = dists.sum(axis=0)
    rel = beta * (1.0 - dists / np.where(denom > 0, denom, 1.0))
    rel -= rel.max(axis=0)
    resp = np.exp(rel, out=rel)
    resp /= resp.sum(axis=0)
    return resp


def reference_distinct_rows(raw):
    """``first`` and ``inv`` of ``np.unique`` over the rows of ``raw``, keyed by their raw bytes."""
    row_bytes = np.dtype((np.void, raw.itemsize * raw.shape[1]))
    _, first, inv = np.unique(raw.view(row_bytes).ravel(), return_index=True, return_inverse=True)
    return first, inv


def reference_distinct_row_kmeans(
    matrix, weights, scope, schema, k, beta, max_iter=100, rng=None
):
    """Soft k-means on distinct rows, with every array allocated per step.

    This is the loop ``soft_kmeans`` ran before its iterations reused
    per-call buffers: distinct rows come from ``np.unique`` over the raw
    row bytes (void keys) for every scope, each iteration allocates its
    distances per centroid, its memberships and its new centroids.  The
    encoder and the k-means++ seeding are the module's own, which that
    change left alone; ``soft_kmeans`` is pinned to this bit for bit.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    matrix = np.asarray(matrix, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    k = min(k, n)
    if k == 1:
        return np.ones((n, 1))

    raw = np.ascontiguousarray(matrix[:, list(scope)])
    first, inv = reference_distinct_rows(raw)
    standardizers = clustering._standardizers(matrix, weights, scope, schema)
    encoded_t = clustering._encode_t(raw[first], scope, schema, standardizers)
    encoded = np.ascontiguousarray(encoded_t.T)
    group_w = np.bincount(inv, weights=weights, minlength=first.size)

    centroids = clustering._kmeanspp_init(encoded, inv, weights, k, rng)
    for _ in range(max_iter):
        eff = _allocating_softmax_memberships(encoded_t, centroids, beta)
        eff *= group_w
        mass = eff.sum(axis=1)
        fed = mass > clustering.COLLAPSE_TOL
        new_centroids = np.divide(eff @ encoded, mass[:, None], out=centroids.copy(),
                                  where=fed[:, None])
        for i in np.flatnonzero(~fed):
            dists = np.sqrt(((encoded_t - centroids[i][:, None]) ** 2).sum(axis=0))
            new_centroids[i] = encoded[inv[int(np.argmax(weights * dists[inv]))]]
        shift = np.abs(new_centroids - centroids).max()
        centroids = new_centroids
        if shift < clustering.CENTROID_TOL:
            break
    resp = _allocating_softmax_memberships(encoded_t, centroids, beta)
    return np.ascontiguousarray(resp.T)[inv]


def _allocating_normalize(joint):
    top = joint.max(axis=0)
    top[~np.isfinite(top)] = 0.0
    expd = np.exp(joint - top)
    total = expd.sum(axis=0)
    return expd / total, np.log(total) + top


def reference_matrix_em(
    matrix, weights, scope, schema, k, max_iter=100, alpha=0.01, rng=None,
    init_membership=None, return_trace=False,
):
    """EM over whole-matrix steps, with every array allocated per step.

    This is the loop ``em_factorized`` ran before its iterations reused a
    per-call deviation buffer and normalised in place; its k-means start
    is ``reference_distinct_row_kmeans``.  ``em_factorized`` is pinned to
    this bit for bit.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    matrix = np.asarray(matrix, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    k = min(k, n)
    if k == 1:
        comp = estimators.fit_factorized(matrix, weights, scope, schema, alpha)
        out = np.ones((n, 1)), clustering.FactorizedMixture(np.ones(1), [comp], tuple(scope))
        return (*out, []) if return_trace else out

    cats = [v for v in scope if schema.is_cat(v)]
    conts = [v for v in scope if not schema.is_cat(v)]
    arities = np.array([schema[v].arity for v in cats], dtype=np.int64)
    icodes = estimators.categorical_codes(matrix[:, cats], arities)

    if init_membership is not None:
        resp = np.asarray(init_membership, dtype=float)
    else:
        resp = reference_distinct_row_kmeans(matrix, weights, scope, schema, k, beta=4.0,
                                             max_iter=10, rng=rng)
    k = resp.shape[1]

    resp = resp.T
    offsets = np.cumsum(arities) - arities
    onehot = np.zeros((n, int(arities.sum())))
    np.put_along_axis(onehot, icodes + offsets, 1.0, axis=1)
    slot_arity = np.repeat(arities, arities)
    x_t = np.ascontiguousarray(matrix[:, conts].T)
    heaviest = int(np.argmax(weights))

    prev_ll = -np.inf
    ll_trace = []
    total_w = weights.sum()
    for _ in range(max_iter):
        eff = weights * resp
        priors = eff.sum(axis=1) / total_w
        w = np.where(eff >= estimators.EPSILON_W, eff, 0.0)
        restart = (priors < clustering.COLLAPSE_TOL) | ~w.any(axis=1)
        if restart.any():
            w[restart] = 0.0
            w[restart, heaviest] = 1.0
            priors[restart] = np.maximum(priors[restart], clustering.COLLAPSE_TOL)
        priors = priors / priors.sum()
        s = w.sum(axis=1)
        probs = (w @ onehot + alpha) / (s[:, None] + slot_arity * alpha)
        mu = w @ x_t.T / s[:, None]
        dev2 = (x_t - mu[:, :, None]) ** 2
        ssq = np.matmul(dev2, w[:, :, None])[:, :, 0]
        denom = s * s - np.einsum("kn,kn->k", w, w)
        bessel = np.divide(s, denom, out=np.zeros(k), where=denom > 0.0)
        sigma = np.maximum(np.sqrt(bessel[:, None] * ssq), estimators.SIGMA_FLOOR)

        empty = probs == 0.0
        joint = np.log(np.where(empty, 1.0, probs)) @ onehot.T
        if empty.any():
            joint[empty @ onehot.T > 0] = -np.inf
        joint += np.matmul((-0.5 / sigma**2)[:, None, :], dev2)[:, 0, :]
        joint += (np.log(priors) - (np.log(sigma) + estimators.LOG_SQRT_2PI).sum(axis=1))[:, None]
        resp, row_ll = _allocating_normalize(joint)
        ll = float(np.dot(weights, row_ll))
        ll_trace.append(ll)
        if ll - prev_ll < clustering.CONVERGENCE_TOL and np.isfinite(prev_ll):
            break
        prev_ll = ll

    mixture = None
    if ll_trace:
        leaves = {v: [Gaussian(float(m), float(sd)) for m, sd in zip(mu[:, j], sigma[:, j])]
                  for j, v in enumerate(conts)}
        for v, lo, a in zip(cats, offsets, arities):
            leaves[v] = [Multinomial(tuple(row.tolist())) for row in probs[:, lo : lo + a]]
        components = [[leaves[v][i] for v in scope] for i in range(k)]
        mixture = clustering.FactorizedMixture(priors, components, tuple(scope))
        joint = np.log(priors)[:, None] + np.array(
            [sum(reference_leaf_log_pdf(dist, matrix[:, v]) for v, dist in zip(scope, comp))
             for comp in components]
        )
        resp, _ = _allocating_normalize(joint)
    resp = np.ascontiguousarray(resp.T)
    if return_trace:
        return resp, mixture, ll_trace
    return resp, mixture


def reference_partition_scope(matrix, weights, scope, schema, p_threshold):
    """``partition_scope`` with one ``weighted_chi2`` call per variable pair.

    Groups are the connected components of the dependency graph, each
    sorted and ordered by their smallest variable; this is the reference
    the one-Gram-matrix batch is pinned to.
    """
    scope = sorted(scope)
    codes = {
        v: matrix[:, v].astype(np.int64)
        if schema.is_cat(v)
        else discretize(matrix[:, v], weights)[0]
        for v in scope
    }
    group = {v: {v} for v in scope}
    for i, a in enumerate(scope):
        for b in scope[i + 1 :]:
            if weighted_chi2(codes[a], codes[b], weights).p_value < p_threshold:
                merged = group[a] | group[b]
                for v in merged:
                    group[v] = merged
    return [list(g) for g in sorted({tuple(sorted(g)) for g in group.values()})]


def all_binary_rows(n_vars: int) -> np.ndarray:
    rows = np.indices((2,) * n_vars).reshape(n_vars, -1).T
    return rows.astype(float)


def binary_mixture(seed, sizes=(2000, 1000)):
    """``(train, test, truth)``: rows of a uniform mixture of 4 products of
    16 Bernoulli leaves, split into blocks of ``sizes`` rows, and the
    mixture itself as a 69-node circuit (64 leaves, 4 products, 1 sum).

    The rows are drawn as the soft-binary benchmark draws them, from the
    same streams: the leaf probabilities come from a fixed population
    stream, Beta(0.5, 0.5) clipped to [0.02, 0.98], and ``seed`` draws each
    row's component, then the row."""
    n_components, n_vars = 4, 16
    population = np.random.default_rng([20240321, 1, 0])
    probs = np.clip(population.beta(0.5, 0.5, size=(n_components, n_vars)), 0.02, 0.98)
    rng = np.random.default_rng([seed, 11])
    z = rng.integers(0, n_components, size=sum(sizes))
    rows = (rng.random((sum(sizes), n_vars)) < probs[z]).astype(float)
    nodes, products = [], []
    for p in probs.tolist():
        nodes += [LeafNode(v, Multinomial((1.0 - q, q))) for v, q in enumerate(p)]
        nodes.append(ProductNode(tuple(range(len(nodes) - n_vars, len(nodes)))))
        products.append(len(nodes) - 1)
    nodes.append(SumNode(tuple(products), (1.0 / n_components,) * n_components))
    truth = Circuit(nodes, len(nodes) - 1, Schema.binary(n_vars))
    return rows[:sizes[0]], rows[sizes[0]:], truth


def mixed_mixture(seed, sizes=(1050, 450)):
    """``(train, test, truth)``: rows of a uniform mixture of 6 products of
    8 Gaussian and 8 categorical leaves, 8 continuous then 8 categorical
    columns, split into blocks of ``sizes`` rows, and the mixture itself as
    a 103-node circuit (96 leaves, 6 products, 1 sum).

    The rows are drawn as the grid-mixed benchmark draws them, from the
    same streams.  A fixed population stream draws the means, N(0, 1.5**2),
    the sigmas, U(0.5, 1.5), the arities, in [2, 6), and per categorical
    column each component's levels, Dirichlet(0.5) mixed with 10% uniform
    mass; ``seed`` draws each row's component, its continuous values, then
    one uniform per categorical column, read against the cumulative
    probabilities."""
    n_components, n_cont, n_cat = 6, 8, 8
    population = np.random.default_rng([20240321, 2, 0])
    means = population.normal(0.0, 1.5, size=(n_components, n_cont))
    sigmas = population.uniform(0.5, 1.5, size=(n_components, n_cont))
    arities = population.integers(2, 6, size=n_cat)
    cat_probs = [0.9 * population.dirichlet(np.full(a, 0.5), size=n_components) + 0.1 / a
                 for a in arities]
    n = sum(sizes)
    rng = np.random.default_rng([seed, 12])
    z = rng.integers(0, n_components, size=n)
    cont = means[z] + sigmas[z] * rng.standard_normal((n, n_cont))
    cats = np.empty((n, n_cat))
    for j, probs in enumerate(cat_probs):
        u = rng.random((n, 1))
        cats[:, j] = np.minimum((u > np.cumsum(probs[z], axis=1)).sum(axis=1), len(probs[0]) - 1)
    rows = np.hstack([cont, cats])
    nodes, products = [], []
    for c in range(n_components):
        nodes += [LeafNode(v, Gaussian(float(means[c, v]), float(sigmas[c, v])))
                  for v in range(n_cont)]
        nodes += [LeafNode(n_cont + j, Multinomial(tuple(probs[c].tolist())))
                  for j, probs in enumerate(cat_probs)]
        nodes.append(ProductNode(tuple(range(len(nodes) - n_cont - n_cat, len(nodes)))))
        products.append(len(nodes) - 1)
    nodes.append(SumNode(tuple(products), (1.0 / n_components,) * n_components))
    schema = Schema([*Schema.continuous(n_cont), *Schema.categorical(arities.tolist())])
    truth = Circuit(nodes, len(nodes) - 1, schema)
    return rows[:sizes[0]], rows[sizes[0]:], truth


def pinned_data(kind):
    """Fixed 400-row sets: 6 binary columns, or cat(3), 2 continuous, binary."""
    rng = np.random.default_rng(7)
    z = rng.integers(0, 2, size=400)
    if kind == "binary":
        p = np.array([[0.2, 0.8, 0.3, 0.7, 0.1, 0.6], [0.8, 0.3, 0.7, 0.2, 0.5, 0.6]])
        return (rng.random((400, 6)) < p[z]).astype(float), Schema.binary(6)
    cat = (z + (rng.random(400) < 0.2)) % 2 + (rng.random(400) < 0.1)
    cols = [cat, z * 2.0 + rng.normal(0, 0.5, 400), rng.normal(0, 1, 400), rng.integers(0, 2, 400)]
    schema = Schema([*Schema.categorical([3]), *Schema.continuous(2), *Schema.binary(1)])
    return np.column_stack(cols).astype(float), schema


def singleton_split_membership(matrix, row) -> np.ndarray:
    """Hard membership putting all exact copies of ``matrix[row]`` in one
    cluster and every other row in the other."""
    matrix = np.asarray(matrix)
    same = np.all(matrix == matrix[row], axis=1)
    m = np.zeros((matrix.shape[0], 2))
    m[same, 0] = 1.0
    m[~same, 1] = 1.0
    if m[:, 1].sum() == 0:
        return m[:, :1]
    return m


def split_circuit(data, membership, hp) -> Circuit:
    """The cap after a single root split, taken by the learner's sum rule: a
    sum node whose children are factorized fits under the
    membership-reweighted data.  A split the learner would not take (fewer
    than two clusters left after dropping, or one keeping all but less than
    1e-5 of the mass) gives ``learner.factorized_circuit``.

    ``membership`` is an (n, K) matrix of nonnegative rows summing to 1
    (``ValueError`` otherwise, from ``clustering.check_membership``);
    one-hot rows reproduce a hard split.
    """
    root = learner._root(data)
    learner._split(root, clustering.check_membership(membership, data.matrix.shape[0]))
    return learner._assemble(root, data, hp.alpha)


def reference_assemble(root, data, alpha) -> Circuit:
    """``learner._assemble`` as a recursive post-order walk: a node's
    children are emitted, first to last, before it takes the next id."""
    nodes = []

    def emit(sub):
        if sub.children is None:
            dists = sub.dists
            if dists is None:
                dists = estimators.fit_factorized(data.matrix[sub.rows], sub.weights, sub.scope,
                                                  data.schema, alpha)
            ids = []
            for v, dist in zip(sub.scope, dists):
                nodes.append(LeafNode(v, dist))
                ids.append(len(nodes) - 1)
            if len(ids) == 1:
                return ids[0]
            nodes.append(ProductNode(tuple(ids)))
            return len(nodes) - 1
        ids = tuple(emit(c) for c in sub.children)
        nodes.append(ProductNode(ids) if sub.sum_weights is None else SumNode(ids, sub.sum_weights))
        return len(nodes) - 1

    return Circuit(nodes, emit(root), data.schema)


def step_counts(trace):
    """(sum, product, factorize, leaf) step counts of a ``LearnTrace``."""
    return tuple(sum(s.step_kind == k for s in trace.steps) for k in ("sum", "product", "factorize", "leaf"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
