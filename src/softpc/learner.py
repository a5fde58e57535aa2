"""Recursive structure learners: hard (LearnSPN-style) and soft partitioning.

Both learners recurse on a weighted view of the data.  When the active
scope splits into approximately independent variable groups, a product
node is created; otherwise instances are clustered and a sum node is
created.  The hard learner assigns each row to exactly one child; the
soft learner passes every row to every child, reweighted by its cluster
responsibility (rows whose weight falls below ``estimators.EPSILON_W``
are dropped).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import clustering, estimators, independence
from .circuit import Circuit, LeafNode, ProductNode, SumNode
from .schema import Schema

CLUSTERERS = ("em", "kmeans")
# bench-cli --method value -> name of the learner in this module.  Callers look
# the learner up here at call time, so a wrapper patched onto the module (a
# tracer) sees every learn.
METHODS = {"learnspn": "learn_spn", "softlearn": "soft_learn"}


@dataclass(frozen=True)
class Hyperparams:
    """Learner settings; the ``bench-cli`` flag that sets each is in brackets.

    - ``p_threshold`` (``--p``): chi-square p-value below which two
      variables count as dependent.
    - ``alpha`` (``--alpha``): multinomial pseudo-count for leaf fits.
    - ``beta`` (``--beta``): softmax sharpness of soft k-means.
    - ``n_clusters`` (``--clusters``): children per sum node.
    - ``min_instances`` (``--min-instances``): subproblems with less
      weight than this are fully factorized.
    - ``max_cluster_iters`` (``--max-cluster-iters``): iteration cap of
      the clusterer.
    - ``clusterer`` (``--clusterer``): a name in ``CLUSTERERS``.
    - ``seed`` (``--seed``): seeds the clustering random stream.
    """

    p_threshold: float = 0.01
    alpha: float = 0.01
    beta: float = 4.0
    n_clusters: int = 2
    min_instances: float = 50.0
    max_cluster_iters: int = 100
    clusterer: str = "em"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.p_threshold < 1.0:
            raise ValueError("p_threshold must be in (0, 1)")
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError("alpha must be finite and nonnegative")
        if not 0.0 <= self.beta < np.inf:
            raise ValueError("beta must be finite and nonnegative")
        for name, least in (("n_clusters", 1), ("max_cluster_iters", 1), ("seed", 0)):
            value = getattr(self, name)  # numpy integers pass; bools and floats do not
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}")
        if not self.min_instances >= 2:  # NaN fails too
            raise ValueError("min_instances must be >= 2")
        if self.clusterer not in CLUSTERERS:
            raise ValueError(f"unknown clusterer {self.clusterer!r}")


@dataclass
class WeightedDataset:
    """Dense data matrix with per-row positive weights.

    All input checks of the learners happen here: values must be finite,
    categorical values integers in ``[0, arity)`` and row weights at
    least ``estimators.EPSILON_W``.
    """

    matrix: np.ndarray
    row_weights: np.ndarray
    schema: Schema

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] == 0:
            raise ValueError("matrix must be a nonempty 2-d array")
        if self.matrix.shape[1] != len(self.schema):
            raise ValueError("matrix width does not match schema")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("matrix values must be finite")
        for v, var in enumerate(self.schema):
            col = self.matrix[:, v]
            if var.kind == "cat" and (
                np.any(col != np.floor(col)) or col.min() < 0 or col.max() >= var.arity
            ):
                raise ValueError(f"column {v}: categorical values must be integers in [0, arity)")
        if self.row_weights is None:
            self.row_weights = np.ones(self.matrix.shape[0])
        self.row_weights = np.asarray(self.row_weights, dtype=float)
        if self.row_weights.shape != (self.matrix.shape[0],):
            raise ValueError("row_weights length mismatch")
        if not np.all(np.isfinite(self.row_weights) & (self.row_weights >= estimators.EPSILON_W)):
            raise ValueError(f"row weights must be finite and at least {estimators.EPSILON_W}")


@dataclass
class StepRecord:
    step_kind: str  # "leaf" | "product" | "sum" | "factorize"
    scope: tuple
    effective_mass: float


@dataclass
class LearnTrace:
    steps: list = field(default_factory=list)


class _Sub:
    """A subproblem of the recursion and the node it is decided into.

    An open subproblem holds its rows (indices into the data matrix), their
    weights and its scope.  Deciding it sets either ``dists`` (one leaf
    distribution per scope variable: a leaf, or a fully factorized product)
    or ``children`` (a product, or a sum when ``sum_weights`` is set) and
    releases the rows.  ``split_off`` marks a product's child: its scope is
    one connected component of the parent's dependency graph over the same
    rows and weights, so testing it again could only return it whole.
    """

    __slots__ = ("rows", "weights", "scope", "split_off", "dists", "children", "sum_weights")

    def __init__(self, rows, weights, scope, split_off=False):
        self.rows, self.weights, self.scope, self.split_off = rows, weights, scope, split_off
        self.dists = self.children = self.sum_weights = None


def _emit(sub, matrix, schema, alpha, nodes):
    """Post-order emission of the tree under ``sub`` into ``nodes``; returns
    the node id.  Open subproblems are capped with a fully factorized fit."""
    if sub.children is None:
        dists = sub.dists
        if dists is None:
            dists = estimators.fit_factorized(matrix[sub.rows], sub.weights, sub.scope, schema, alpha)
        ids = []
        for v, dist in zip(sub.scope, dists):
            nodes.append(LeafNode(v, dist))
            ids.append(len(nodes) - 1)
        if len(ids) == 1:
            return ids[0]
        nodes.append(ProductNode(tuple(ids)))
        return len(nodes) - 1
    ids = tuple(_emit(c, matrix, schema, alpha, nodes) for c in sub.children)
    nodes.append(ProductNode(ids) if sub.sum_weights is None else SumNode(ids, sub.sum_weights))
    return len(nodes) - 1


def _assemble(root, matrix, schema, alpha) -> Circuit:
    nodes = []
    return Circuit(nodes, _emit(root, matrix, schema, alpha, nodes), schema)


def _root(data: WeightedDataset) -> _Sub:
    """The open subproblem over every row and variable of ``data``."""
    return _Sub(np.arange(data.matrix.shape[0]), data.row_weights.copy(),
                tuple(range(len(data.schema))))


def _split(node: _Sub, membership) -> bool:
    """Decide the open ``node`` into a sum over the clusters of ``membership``.

    Cluster i receives weight ``membership[:, i] * node.weights``; rows whose
    share falls below ``estimators.EPSILON_W`` are dropped from it, and a
    cluster left with no row or no mass is dropped.  The sum weights are the
    kept clusters' mass fractions.  Returns ``False``, leaving the node open,
    when fewer than two clusters remain or one holds the whole mass: such a
    child would not shrink the subproblem, so the learner factorizes instead.
    """
    child_w = membership * node.weights[:, None]
    masses = child_w.sum(axis=0)
    children, kept = [], []
    for i in range(membership.shape[1]):
        keep = child_w[:, i] >= estimators.EPSILON_W
        if masses[i] > 0 and np.any(keep):
            children.append(_Sub(node.rows[keep], child_w[keep, i], node.scope))
            kept.append(masses[i])
    if len(children) < 2 or max(kept) >= node.weights.sum() * (1.0 - 1e-9):
        return False
    sum_w = np.asarray(kept) / masses.sum()
    node.children = children
    node.sum_weights = tuple((sum_w / sum_w.sum()).tolist())
    return True


def _cluster(matrix, weights, scope, schema, hp, rng):
    if hp.clusterer == "kmeans":
        return clustering.soft_kmeans(
            matrix, weights, scope, schema, hp.n_clusters, hp.beta,
            max_iter=hp.max_cluster_iters, rng=rng,
        )
    resp, _ = clustering.em_factorized(
        matrix, weights, scope, schema, hp.n_clusters,
        max_iter=hp.max_cluster_iters, alpha=hp.alpha, rng=rng,
    )
    return resp


def _check_membership(membership, n_rows: int) -> np.ndarray:
    """``membership`` as a float array; ``ValueError`` unless it is a finite,
    nonnegative ``(n_rows, K)`` array, K >= 1, whose rows sum to 1."""
    membership = np.asarray(membership, dtype=float)
    if membership.ndim != 2 or membership.shape[0] != n_rows or membership.shape[1] < 1:
        raise ValueError(f"membership must have shape ({n_rows}, K), got {membership.shape}")
    if not np.all(np.isfinite(membership) & (membership >= 0.0)):
        raise ValueError("membership entries must be finite and nonnegative")
    if np.any(np.abs(membership.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("membership rows must sum to 1")
    return membership


def _steps(data: WeightedDataset, hp: Hyperparams, soft: bool, first_split):
    """The recursion, one decision at a time: after each decision, yield the
    partial tree's root ``_Sub`` and the step's ``StepRecord``.  Open
    subproblems of the yielded tree still hold their rows and weights."""
    full = data.matrix
    schema = data.schema
    if first_split is not None:  # the first clustered subproblem holds every row
        first_split = _check_membership(first_split, full.shape[0])
    rng = np.random.default_rng(np.random.SeedSequence(hp.seed))

    root = _root(data)
    stack = [root]
    while stack:
        node = stack.pop()
        rows, weights, scope = node.rows, node.weights, node.scope
        sub = full[rows]
        mass = weights.sum()

        kind = "factorize"
        if len(scope) == 1:
            kind = "leaf"
        elif mass >= hp.min_instances:
            groups = [scope] if node.split_off else independence.partition_scope(
                sub, weights, scope, schema, hp.p_threshold)
            if len(groups) > 1:  # groups arrive ordered by smallest variable
                kind = "product"
                node.children = [_Sub(rows, weights, tuple(g), split_off=True) for g in groups]
            else:
                if first_split is not None:
                    resp, first_split = first_split, None
                else:
                    resp = _cluster(sub, weights, scope, schema, hp, rng)
                if _split(node, resp if soft else clustering.harden(resp)):
                    kind = "sum"
        if node.children is None:
            node.dists = estimators.fit_factorized(sub, weights, scope, schema, hp.alpha)
        else:
            stack.extend(reversed(node.children))  # depth-first, first child first
        node.rows = node.weights = None
        yield root, StepRecord(kind, tuple(scope), float(mass))


def _learn(data: WeightedDataset, hp: Hyperparams, soft: bool, first_split):
    steps = list(_steps(data, hp, soft, first_split))
    trace = LearnTrace([step for _, step in steps])
    return _assemble(steps[-1][0], data.matrix, data.schema, hp.alpha), trace


def learn_spn(data: WeightedDataset, hp: Hyperparams, first_split=None):
    """Hard recursive structure learning: cluster memberships are hardened
    and each row lands in exactly one child of every sum node.

    ``first_split``, a finite, nonnegative ``(n_rows, K)`` membership whose
    rows sum to 1, replaces the clusterer's at the first sum decision;
    anything else raises ``ValueError``."""
    return _learn(data, hp, soft=False, first_split=first_split)


def soft_learn(data: WeightedDataset, hp: Hyperparams, first_split=None):
    """Soft recursive structure learning: every row reaches every child of a
    sum node with weight responsibility * parent weight; sum-node weights
    are the child mass fractions.  ``first_split`` is as in ``learn_spn``."""
    return _learn(data, hp, soft=True, first_split=first_split)
