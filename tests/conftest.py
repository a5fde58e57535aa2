import functools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from softpc import clustering, estimators
from softpc.circuit import Circuit, LeafNode, ProductNode, SumNode
from softpc.estimators import Gaussian, Multinomial, leaf_log_pdf
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


def reference_log_value(circuit: Circuit, query) -> float:
    """Log value of one query, evaluated node by node by recursion.

    Entries are as in ``Circuit.log_marginal``: ``None``, a point, or an
    ``(lo, hi)`` interval.  Leaves use ``leaf_log_pdf`` one at a time,
    intervals use ``math.erfc`` and sums use ``np.logaddexp``; this is the
    reference the batched evaluator is pinned to.
    """

    def leaf_value(node):
        entry = query[node.var]
        if entry is None:
            return 0.0
        if isinstance(entry, tuple):
            lo, hi = ((b - node.dist.mu) / node.dist.sigma for b in entry)
            mass = 0.5 * math.erfc(-hi / math.sqrt(2.0)) - 0.5 * math.erfc(-lo / math.sqrt(2.0))
            return math.log(mass) if mass > 0 else -math.inf
        return leaf_log_pdf(node.dist, entry)

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


def reference_soft_kmeans(matrix, weights, scope, schema, k, beta, max_iter=100, rng=None):
    """Soft k-means with every row clustered on its own, duplicates included.

    This is the loop ``soft_kmeans`` ran before identical rows were
    collapsed into one; it is the reference the collapsed loop is pinned to.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    k = min(k, n)
    encoded = clustering.encode_rows(matrix, weights, scope, schema)
    if k == 1:
        return np.ones((n, 1))

    centroids = clustering._kmeanspp_init(encoded, weights, k, rng)
    for _ in range(max_iter):
        resp = clustering.softmax_memberships(encoded, centroids, beta)
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
    return clustering.softmax_memberships(encoded, centroids, beta)


def reference_em_factorized(
    matrix, weights, scope, schema, k, max_iter=100, tol=1e-4, alpha=0.01, rng=None,
    init_membership=None, return_trace=False,
):
    """EM with one leaf fit and one ``leaf_log_pdf`` call per component and variable.

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
                ll += leaf_log_pdf(dist, matrix[:, v])
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


def reference_partition_scope(matrix, weights, scope, schema, p_threshold, bins=4):
    """``partition_scope`` with one ``weighted_chi2`` call per variable pair.

    Groups are the connected components of the dependency graph, each
    sorted and ordered by their smallest variable; this is the reference
    the one-Gram-matrix batch is pinned to.
    """
    scope = sorted(scope)
    codes = {
        v: matrix[:, v].astype(np.int64)
        if schema.is_cat(v)
        else discretize(matrix[:, v], weights, bins)[0]
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
