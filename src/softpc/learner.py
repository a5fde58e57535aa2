"""Recursive structure learners: hard (LearnSPN-style) and soft partitioning.

Both learners recurse on a weighted view of the data.  When the active
scope splits into approximately independent variable groups, a product
node is created; otherwise instances are clustered and a sum node is
created.  The hard learner assigns each row to exactly one child; the
soft learner passes every row to every child, reweighted by its cluster
responsibility (rows whose weight falls below ``estimators.EPSILON_W``
are dropped).

The paper's first claim is that LearnSPN is a greedy likelihood
maximizer.  Capping a learn after any step, with every open subproblem
fitted fully factorized on its rows and weights, gives a valid circuit;
``capped_ll_trace`` reports its train log-likelihood after every step, and
``factorized_circuit`` is the cap before the first step.
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
    - ``alpha`` (``--alpha``): multinomial pseudo-count for leaf fits, at
      most ``estimators.MAX_TOTAL_WEIGHT``.
    - ``beta`` (``--beta``): softmax sharpness of soft k-means.
    - ``n_clusters`` (``--clusters``): children per sum node.
    - ``min_instances`` (``--min-instances``): subproblems with less
      weight than this are fully factorized.  It is in row-weight units,
      not rows: a soft split keeps every row in every child at a share of
      its weight, so on rows with large weights ``soft_learn`` keeps
      splitting for as long as the shares still add up to it.
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
        if not 0.0 <= self.alpha <= estimators.MAX_TOTAL_WEIGHT:
            raise ValueError(f"alpha must be in [0, {estimators.MAX_TOTAL_WEIGHT:g}]")
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

    All input checks of the learners happen here: values must be finite
    and at most ``estimators.CONT_MAX_ABS`` in magnitude
    (``estimators.continuous_values``, over every column), categorical
    values integers in ``[0, arity)`` (``estimators.categorical_codes``),
    and row weights as ``estimators.check_weights`` requires, at least
    ``estimators.EPSILON_W`` and at most ``estimators.MAX_TOTAL_WEIGHT``
    in total.  A ``-0.0`` is stored as ``0.0``, in a
    copy of ``matrix``, so numerically equal inputs learn the same circuit.
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
        estimators.continuous_values(self.matrix, "matrix values")
        cats = [v for v in range(len(self.schema)) if self.schema.is_cat(v)]
        estimators.categorical_codes(self.matrix[:, cats], [self.schema[v].arity for v in cats])
        if np.signbit(self.matrix[self.matrix == 0.0]).any():
            # -0.0 equals 0.0, but distinct rows are told apart by their bytes;
            # adding 0.0 makes a new array, so the caller's keeps its values
            self.matrix = self.matrix + 0.0
        if self.row_weights is None:
            self.row_weights = np.ones(self.matrix.shape[0])
        self.row_weights = estimators.check_weights(self.row_weights, self.matrix.shape[0])
        if not (self.row_weights >= estimators.EPSILON_W).all():
            raise ValueError(f"row weights must be at least {estimators.EPSILON_W}")
        with np.errstate(over="ignore"):  # a total that overflows is inf, and fails
            total = self.row_weights.sum()
        if not total <= estimators.MAX_TOTAL_WEIGHT:
            raise ValueError(f"row weights must total at most {estimators.MAX_TOTAL_WEIGHT:g}")


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


def _assemble(root: _Sub, data: WeightedDataset, alpha) -> Circuit:
    """The circuit of the tree under ``root``, open subproblems capped with a
    fully factorized fit of their rows and weights.

    The walk visits each node before its children, taking the last child
    first, on an explicit stack, so a tree of any depth assembles.  Reversed,
    that order lists the first child's subtree, then each later child's,
    then the node: a post-order.  Emitted in it, each node takes its id after
    its children's, and ids and the fits of open subproblems come in the
    order that a recursive post-order walk gives them."""
    order, stack = [], [root]
    while stack:
        order.append(stack.pop())
        stack.extend(order[-1].children or ())
    nodes, ids = [], {}
    for sub in reversed(order):
        if sub.children is None:
            dists = sub.dists if sub.dists is not None else estimators.fit_factorized(
                data.matrix[sub.rows], sub.weights, sub.scope, data.schema, alpha)
            nodes.extend(LeafNode(v, dist) for v, dist in zip(sub.scope, dists))
            if len(dists) > 1:
                nodes.append(ProductNode(tuple(range(len(nodes) - len(dists), len(nodes)))))
        else:
            kids = tuple(ids[id(c)] for c in sub.children)
            nodes.append(ProductNode(kids) if sub.sum_weights is None else SumNode(kids, sub.sum_weights))
        ids[id(sub)] = len(nodes) - 1
    return Circuit(nodes, len(nodes) - 1, data.schema)


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
    when fewer than two clusters remain or one keeps all but a sliver, less
    than 1e-5, of the mass: such a child would barely shrink the subproblem,
    so the learner factorizes instead.  (On weighted rows, ``soft_learn``
    could otherwise split off slivers of ~1e-6 for thousands of steps.)
    """
    child_w = membership * node.weights[:, None]
    masses = child_w.sum(axis=0)
    children, kept = [], []
    for i in range(membership.shape[1]):
        keep = child_w[:, i] >= estimators.EPSILON_W
        if masses[i] > 0 and np.any(keep):
            children.append(_Sub(node.rows[keep], child_w[keep, i], node.scope))
            kept.append(masses[i])
    if len(children) < 2 or max(kept) >= node.weights.sum() * (1.0 - 1e-5):
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


def _steps(root: _Sub, data: WeightedDataset, hp: Hyperparams, soft: bool, first_split):
    """The recursion from the open ``root``, one decision at a time: yield
    each step's ``StepRecord`` after deciding it in place.  Open
    subproblems under ``root`` still hold their rows and weights."""
    full, schema = data.matrix, data.schema
    if first_split is not None:  # the first clustered subproblem holds every row
        first_split = clustering.check_membership(first_split, full.shape[0])
    rng = np.random.default_rng(np.random.SeedSequence(hp.seed))

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
        yield StepRecord(kind, tuple(scope), float(mass))


def _learn(data: WeightedDataset, hp: Hyperparams, soft: bool, first_split):
    root = _root(data)
    trace = LearnTrace(list(_steps(root, data, hp, soft, first_split)))
    return _assemble(root, data, hp.alpha), trace


def learn_spn(data: WeightedDataset, hp: Hyperparams, first_split=None):
    """Hard recursive structure learning: cluster memberships are hardened
    and each row lands in exactly one child of every sum node.

    ``first_split``, a finite, nonnegative ``(n_rows, K)`` membership whose
    rows sum to 1, replaces the clusterer's at the first sum decision;
    anything else raises ``ValueError`` (``clustering.check_membership``)."""
    return _learn(data, hp, soft=False, first_split=first_split)


def soft_learn(data: WeightedDataset, hp: Hyperparams, first_split=None):
    """Soft recursive structure learning: every row reaches every child of a
    sum node with weight responsibility * parent weight; sum-node weights
    are the child mass fractions.  ``first_split`` is as in ``learn_spn``."""
    return _learn(data, hp, soft=True, first_split=first_split)


def capped_ll_trace(data: WeightedDataset, hp: Hyperparams, soft: bool, first_split=None) -> list:
    """Mean train log-likelihood of the circuit capped after each step of
    ``learn_spn`` (``soft=False``) or ``soft_learn`` (``soft=True``), one
    value per ``StepRecord``; the last is the learned circuit's."""
    root = _root(data)
    return [
        float(np.mean(_assemble(root, data, hp.alpha).log_density(data.matrix)))
        for _ in _steps(root, data, hp, soft, first_split)
    ]


def factorized_circuit(data: WeightedDataset, hp: Hyperparams) -> Circuit:
    """Fully factorized circuit over all variables (the cap before any step)."""
    return _assemble(_root(data), data, hp.alpha)
