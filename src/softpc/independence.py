"""Weighted chi-square independence testing and scope partitioning.

Chi-square tests of every variable pair in the active scope build an
undirected dependency graph; connected components of that graph become
the child scopes of a product node.  Continuous variables are discretized
into weighted equal-frequency bins before testing, so all tests share the
same frequency interpretation.  ``partition_scope`` reads every pair's
contingency table from one weighted Gram matrix ``Eᵀ·diag(w)·E`` of the
one-hot scope codes and tests all pairs in one vectorised pass, with the
same rules as a single ``weighted_chi2`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import categorical_codes, check_weights, continuous_values, distinct

BINS = 4  # equal-frequency bins per continuous column in partition_scope
# one-hot cells per row block of the Gram matrix in partition_scope (64 KiB)
_GRAM_BLOCK_CELLS = 2**13


@dataclass(frozen=True)
class Chi2Result:
    stat: float
    dof: int
    p_value: float


def discretize(values, weights):
    """Bin a continuous column into ``BINS`` weighted equal-frequency bins.

    Returns ``(codes, edges)`` where codes are bin indices in
    ``{0..len(edges)}`` and edges are cut points (midpoints between the
    adjacent distinct values).  If fewer distinct values than bins exist,
    the bin count is reduced accordingly.  ``values`` must pass
    ``estimators.continuous_values`` (finite, at most ``CONT_MAX_ABS`` in
    magnitude) and ``weights`` ``estimators.check_weights``, one per value.
    The distinct values and each value's bin come from one
    ``estimators.distinct`` call.
    """
    values = continuous_values(values)
    weights = check_weights(weights, values.size)
    first, inv = distinct(values)
    uniq = values[first]
    if uniq.size == 1:
        return np.zeros(values.shape, dtype=np.int64), np.empty(0)
    uw = np.bincount(inv, weights=weights, minlength=uniq.size)
    cum = np.cumsum(uw)
    cut_idx = np.unique(np.searchsorted(cum, cum[-1] * np.arange(1, BINS) / BINS))
    # cut after uniq[i]; a cut after the last value is meaningless
    cut_idx = cut_idx[cut_idx < uniq.size - 1]
    edges = (uniq[cut_idx] + uniq[cut_idx + 1]) / 2.0
    codes = np.searchsorted(edges, values, side="left").astype(np.int64)
    return codes, edges


def weighted_chi2(x, y, weights) -> Chi2Result:
    """Pearson chi-square test of independence on a weighted contingency table.

    Observed cell (i, j) is the total weight of rows with x == i and
    y == j; expected cells come from the margins.  Cells with zero
    expected weight are skipped and categories with zero margin do not
    count toward the degrees of freedom.  Tables with a single effective
    row/column, or with total weight below ``2 * r * c``, return
    ``p_value = 1`` (no usable evidence of dependence).  ``ValueError``
    unless every code is a nonnegative integer, ``x`` and ``y`` have equal
    length and ``weights`` passes ``estimators.check_weights``.
    """
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    weights = check_weights(weights, x.size)
    # a negative code fails the bound as a huge unsigned one
    x, y = categorical_codes(np.stack((x, y)), np.iinfo(np.int64).max)

    nx, ny = int(x.max()) + 1, int(y.max()) + 1
    table = np.bincount(x * ny + y, weights=weights, minlength=nx * ny).reshape(1, nx, ny)
    stat, dof, p = _chi2_tables(table)
    return Chi2Result(float(stat[0]), int(dof[0]), float(p[0]))


def _chi2_tables(tables):
    """Statistic, dof and p-value of each table in a ``(pairs, r, c)`` stack.

    The rules are ``weighted_chi2``'s: levels with zero margin are left
    out, a table with at most one level left on a side gets dof 0, and
    one whose mass is below ``2 * r * c`` gets statistic 0; both get
    p-value 1.
    """
    rows, cols = tables.sum(axis=2), tables.sum(axis=1)
    r, c = (rows > 0).sum(axis=1), (cols > 0).sum(axis=1)
    total = rows.sum(axis=1)
    expected = rows[:, :, None] * cols[:, None, :] / total[:, None, None]
    mask = expected > 0
    cells = np.zeros_like(expected)
    cells[mask] = (tables[mask] - expected[mask]) ** 2 / expected[mask]
    testable = (r > 1) & (c > 1)
    # too little effective mass for the asymptotic test to mean anything
    usable = testable & (total >= 2.0 * r * c)
    stat = np.where(usable, cells.sum(axis=(1, 2)), 0.0)
    dof = np.where(testable, (r - 1) * (c - 1), 0)
    p = np.ones(stat.size)
    tested = stat > 0
    p[tested] = _chdtrc(dof[tested], stat[tested])
    return stat, dof, p


def _chdtrc(dof, stat):
    """``scipy.special.chdtrc``, imported on the first call: scipy.special
    adds about 0.3 s to importing softpc, and only learning needs it.  The
    first call rebinds this name to the ufunc itself, so later calls go
    straight to it."""
    global _chdtrc
    from scipy.special import chdtrc

    _chdtrc = chdtrc
    return chdtrc(dof, stat)


def partition_scope(matrix, weights, scope, schema, p_threshold: float):
    """Split the active scope into approximately independent variable groups.

    Runs the weighted chi-square test on every pair of scope variables
    (continuous columns discretized first) and returns the connected
    components of the resulting dependency graph, each sorted, ordered by
    their smallest variable.  All pair tables come from one weighted Gram
    matrix of the one-hot scope codes.  Raises ``ValueError`` if a
    categorical scope column holds a value that is not an integer in
    ``[0, arity)`` (``estimators.categorical_codes``), if a continuous one
    fails ``discretize``'s rule (``estimators.continuous_values``), or if
    ``weights`` fails ``estimators.check_weights``, one per row of ``matrix``.
    """
    matrix = np.asarray(matrix)
    weights = check_weights(weights, matrix.shape[0])
    scope = list(scope)
    if len(scope) < 2:
        return [sorted(scope)]

    # the continuous columns become bin codes, then one call checks and
    # converts every column (a bin code is always below BINS)
    codes = matrix[:, scope]
    for j, v in enumerate(scope):
        if not schema.is_cat(v):
            codes[:, j], _ = discretize(codes[:, j], weights)
    codes = categorical_codes(codes, [schema[v].arity if schema.is_cat(v) else BINS
                                      for v in scope])

    # one-hot columns per variable at its own offset; column `width` stays
    # zero and pads every variable to the widest one in the pair tables.
    # The one-hot rows are built a block at a time to bound the temporaries.
    levels = codes.max(axis=0) + 1
    offsets = np.concatenate(([0], np.cumsum(levels)[:-1]))
    width = int(levels.sum())
    gram = np.zeros((width + 1, width + 1))
    step = max(1, _GRAM_BLOCK_CELLS // (width + 1))
    for lo in range(0, weights.size, step):
        block = codes[lo : lo + step] + offsets
        onehot = np.zeros((block.shape[0], width + 1))
        np.put_along_axis(onehot, block, 1.0, axis=1)
        gram += (onehot.T * weights[lo : lo + step]) @ onehot

    pad = np.arange(int(levels.max()))
    slots = np.where(pad < levels[:, None], offsets[:, None] + pad, width)
    a, b = np.triu_indices(len(scope), 1)
    _, _, p = _chi2_tables(gram[slots[a][:, :, None], slots[b][:, None, :]])
    dependent = p < p_threshold

    adj = {v: set() for v in scope}
    for i, j in zip(a[dependent], b[dependent]):
        adj[scope[i]].add(scope[j])
        adj[scope[j]].add(scope[i])

    seen = set()
    groups = []
    for v in sorted(scope):
        if v in seen:
            continue
        comp, stack = [], [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        groups.append(sorted(comp))
    return groups
