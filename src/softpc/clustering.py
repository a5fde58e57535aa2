"""Weighted instance clustering producing soft or hard memberships.

Two clusterers are provided: a soft k-means whose responsibilities come
from a softmax over normalized centroid distances (sharpness ``beta``),
and EM over a mixture of fully factorized univariate distributions.  Both
accept per-row weights, treated as frequencies throughout.

Both keep their per-iteration arrays component-major, so every reduction
runs along the rows, and both write their largest per-iteration arrays
into buffers that each call allocates once.  Soft k-means first
collapses the rows that are identical on the scope into distinct rows,
encodes only those, as a ``(d, m)`` array, and spreads the result back to
the rows at the end; its random draws still range over the original
rows.  An all-categorical scope finds its distinct rows from one integer
key per row, folded from the codes that the entry check made by
``estimators.key_places``, the fold ``Circuit.log_density`` also keys its
rows with; any other scope keys them by the rows' raw bytes.  Both give
the same rows in the same order, grouped by ``estimators.distinct``, as
``log_density``'s keys are.

Each public entry, ``soft_kmeans``, ``em_factorized`` and ``encode_rows``,
checks its weights, continuous values and categorical levels once, at its
start (``_checked``); the k-means core behind ``soft_kmeans``, which also
starts EM, the distinct-row keys, EM's one-hot codes and its closing leaf
pass then trust what it passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import estimators
from .estimators import CategoricalTable, Gaussian, Multinomial, leaf_log_pdf

CENTROID_TOL = 1e-6
COLLAPSE_TOL = 1e-8
CONVERGENCE_TOL = 1e-4
# largest arity whose levels soft k-means ranks by table to key distinct rows
_MAX_KEYED_ARITY = 1024


@dataclass
class FactorizedMixture:
    """K fully factorized components over a scope, with mixing priors."""

    priors: np.ndarray  # (K,)
    components: list  # K lists of LeafDists, aligned with the scope order
    scope: tuple
    ll_trace: list = field(default_factory=list)  # EM's weighted log-likelihood per iteration


def check_membership(membership, n_rows: int) -> np.ndarray:
    """``membership`` as a float array; ``ValueError`` unless it is a finite,
    nonnegative ``(n_rows, K)`` array, K >= 1, whose rows sum to 1 (within
    1e-9).  The rule of every membership a caller hands in: EM's
    ``init_membership`` and the first split of the learners and of
    ``learner.capped_ll_trace``."""
    membership = np.asarray(membership, dtype=float)
    if membership.ndim != 2 or membership.shape[0] != n_rows or membership.shape[1] < 1:
        raise ValueError(f"membership must have shape ({n_rows}, K), got {membership.shape}")
    if not np.all(np.isfinite(membership) & (membership >= 0.0)):
        raise ValueError("membership entries must be finite and nonnegative")
    if np.any(np.abs(membership.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("membership rows must sum to 1")
    return membership


def _checked(matrix, weights, scope, schema):
    """The clustering entries' one check of their input: ``(matrix, weights,
    codes)``.  ``matrix`` comes back as floats, its continuous scope
    columns checked by ``estimators.continuous_values``, and ``weights``
    through ``estimators.check_weights``, one per row; ``codes`` are the int64
    levels of the scope's categorical columns, in scope order, from one
    ``estimators.categorical_codes`` call over them.  ``ValueError`` names
    the rule a bad weight or value breaks."""
    matrix = np.asarray(matrix, dtype=float)
    weights = estimators.check_weights(weights, matrix.shape[0])
    estimators.continuous_values(matrix[:, [v for v in scope if not schema.is_cat(v)]])
    cats = [v for v in scope if schema.is_cat(v)]
    codes = estimators.categorical_codes(matrix[:, cats], [schema[v].arity for v in cats])
    return matrix, weights, codes


def _standardizers(matrix, weights, scope, schema):
    """Per scope variable: ``None`` if categorical, else the ``(mean, std)``
    that standardize it, weighted over every row of ``matrix``."""
    total = weights.sum()
    out = []
    for v in scope:
        if schema.is_cat(v):
            out.append(None)
            continue
        col = matrix[:, v]
        mean = float(np.dot(weights, col) / total)
        var = float(np.dot(weights, (col - mean) ** 2) / total)
        out.append((mean, np.sqrt(var) if var > 0 else 1.0))
    return out


def _encode_t(raw, scope, schema, standardizers):
    """Encode ``raw``, the scope columns of m rows, as a component-major ``(d, m)`` array."""
    m = raw.shape[0]
    widths = [1 if st else schema[v].arity for v, st in zip(scope, standardizers)]
    out = np.zeros((sum(widths), m))
    at = 0
    for j, (st, width) in enumerate(zip(standardizers, widths)):
        col = raw[:, j]
        if st:
            out[at] = (col - st[0]) / st[1]
        else:
            out[at + col.astype(np.int64), np.arange(m)] = 1.0
        at += width
    return out


def encode_rows(matrix, weights, scope, schema):
    """Encode scope columns for distance computation; returns ``(n, d)``.

    Categorical columns are one-hot encoded; continuous columns are
    standardized by their weighted mean/std (zero-variance columns pass
    through unchanged).  Raises ``ValueError`` on the rules of
    ``soft_kmeans``: a categorical value that is not a level, a
    continuous one that fails ``estimators.continuous_values``, or weights
    that fail ``estimators.check_weights``.
    """
    matrix, weights = _checked(matrix, weights, scope, schema)[:2]
    standardizers = _standardizers(matrix, weights, scope, schema)
    return _encode_t(matrix[:, list(scope)], scope, schema, standardizers).T


def softmax_memberships(encoded_t, centroids, beta: float, out=None, scratch=None):
    """Responsibilities softmax(beta * (1 - ||d - C_i|| / sum_j ||d - C_j||)).

    ``encoded_t`` is component-major, ``(d, m)``, and the result is
    ``(k, m)``: one row of responsibilities per centroid, written into
    ``out`` when given.  The distances come from one broadcast difference
    into a ``(k, d, m)`` array (``scratch`` when given), squared in place
    and summed over the components.  The sums, maxima and totals over the
    k centroids are one binary ufunc call per centroid, in centroid order,
    the order a reduction over the leading axis adds in.  A row on every
    centroid (all distances 0) keeps its zero distances, so it gets equal
    scores: no preference.
    """
    k = centroids.shape[0]
    d, m = encoded_t.shape
    if out is None:
        out = np.empty((k, m))
    if scratch is None:
        scratch = np.empty((k, d, m))
    np.subtract(encoded_t, centroids[:, :, None], out=scratch)
    np.square(scratch, out=scratch)
    np.add.reduce(scratch, axis=1, out=out)
    np.sqrt(out, out=out)
    # the differences are spent: the first of them holds the per-row sums
    acc = scratch[0, 0]
    rows = list(out)
    _fold(np.add, rows, acc)
    np.divide(out, acc, out=out, where=acc > 0)
    np.subtract(1.0, out, out=out)
    np.multiply(beta, out, out=out)
    _fold(np.maximum, rows, acc)
    np.subtract(out, acc, out=out)
    np.exp(out, out=out)
    _fold(np.add, rows, acc)
    np.divide(out, acc, out=out)
    return out


def _fold(ufunc, rows, acc):
    """``ufunc.reduce`` over the list ``rows`` into ``acc``, one call per row in row order."""
    if len(rows) == 1:
        np.copyto(acc, rows[0])
        return
    ufunc(rows[0], rows[1], out=acc)
    for row in rows[2:]:
        ufunc(acc, row, out=acc)


def _kmeanspp_init(encoded, inv, weights, k, rng):
    # weighted k-means++ over the original rows: first seed by row weight,
    # then by weight * D^2; D^2 is computed once per distinct row (``encoded``,
    # row-major) and gathered to the rows through ``inv``
    n = weights.size
    probs = weights / weights.sum()
    idx = [inv[rng.choice(n, p=probs)]]
    d2 = np.full(encoded.shape[0], np.inf)
    for _ in range(1, k):
        d2 = np.minimum(d2, ((encoded - encoded[idx[-1]]) ** 2).sum(axis=1))
        mass = weights * d2[inv]
        total = mass.sum()
        idx.append(inv[rng.choice(n, p=mass / total if total > 0 else probs)])
    return encoded[idx].copy()


def soft_kmeans(
    matrix,
    weights,
    scope,
    schema,
    k: int,
    beta: float,
    max_iter: int = 100,
    rng=None,
):
    """Weighted soft k-means; returns an (n, k) membership matrix.

    Centroids are weighted means under effective weight
    ``row_weight * responsibility``; iteration stops at ``max_iter`` or
    when the largest centroid shift falls below 1e-6.  ``rng=None``
    seeds the k-means++ initialisation with ``default_rng(0)``.

    Distinct rows come first: the raw scope columns are uniqued in the
    order of their bytes, and only the distinct rows are encoded, each
    carrying the sum of its rows' weights; all rows share their distinct
    row's responsibilities.  When every scope variable is categorical
    (and no value is ``-0.0``), each row's key is one int64: each checked
    level code maps to its rank in the byte order of its float64 (not the
    numeric order: 2.0 sorts before 1.0), and ``estimators.key_places``
    folds the ranks into a mixed-radix number, the first scope column most
    significant; a scope whose arities multiply past ``2**62`` is not
    keyed this way.  The key sorts as the bytes do, so the distinct rows
    come out in the same order as with the rows' raw bytes as keys, which
    every other scope uses.  The continuous columns are still standardized
    by statistics over every row, so each distinct row encodes to the same
    floats as its rows would.  The encoded rows are kept component-major,
    ``(d, m)``.  The memberships ``(k, m)``, the ``(k, d, m)`` distance
    scratch and the centroid-shift buffer are allocated once per call:
    each iteration is one ``softmax_memberships`` call into them and one
    ``(k, m) @ (m, d)`` centroid update.

    The random stream is the same as with every row clustered on its own.
    Each k-means++ draw still picks one of the ``n`` original rows, with
    ``rng.choice(n, p=...)``.  Its ``D^2`` is computed once per distinct
    row, on a row-major ``(m, d)`` copy, with the same arithmetic that
    each of its rows would get, and gathered to the rows through the
    inverse index; so every draw sees the same ``n`` floats and takes the
    same randomness.  A starved cluster's re-seed draws nothing: it takes
    the original row of largest ``weight * distance``, the first one on a
    tie.

    Raises ``ValueError`` if a categorical scope column holds a value
    that is not an integer in ``[0, arity)`` (``estimators.categorical_codes``),
    if a continuous one holds a value that is not finite or exceeds
    ``estimators.CONT_MAX_ABS`` in magnitude (``estimators.continuous_values``),
    or if ``weights`` fails ``estimators.check_weights``, one per row.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    matrix, weights, codes = _checked(matrix, weights, scope, schema)
    return _kmeans(matrix, weights, codes, scope, schema, k, beta, max_iter, rng)


def _kmeans(matrix, weights, codes, scope, schema, k, beta, max_iter, rng):
    """``soft_kmeans`` on the float matrix, weights and codes that ``_checked`` made."""
    raw = np.ascontiguousarray(matrix[:, list(scope)])
    first, inv = _distinct_rows(raw, codes, scope, schema)
    distinct = raw[first]
    n = weights.size
    k = min(k, n)
    if k == 1:
        return np.ones((n, 1))

    standardizers = _standardizers(matrix, weights, scope, schema)
    encoded_t = _encode_t(distinct, scope, schema, standardizers)
    encoded = np.ascontiguousarray(encoded_t.T)
    group_w = np.bincount(inv, weights=weights, minlength=first.size)

    centroids = _kmeanspp_init(encoded, inv, weights, k, rng)
    resp = np.empty((k, first.size))
    scratch = np.empty((k,) + encoded_t.shape)
    moved = np.empty_like(centroids)
    for _ in range(max_iter):
        eff = softmax_memberships(encoded_t, centroids, beta, out=resp, scratch=scratch)
        eff *= group_w
        mass = eff.sum(axis=1)
        fed = mass > COLLAPSE_TOL
        new_centroids = np.divide(eff @ encoded, mass[:, None], out=centroids.copy(),
                                  where=fed[:, None])
        for i in np.flatnonzero(~fed):
            # re-seed a starved cluster at the row farthest from its centroid
            dists = np.sqrt(((encoded_t - centroids[i][:, None]) ** 2).sum(axis=0))
            new_centroids[i] = encoded[inv[int(np.argmax(weights * dists[inv]))]]
        np.subtract(new_centroids, centroids, out=moved)
        shift = np.abs(moved, out=moved).max()
        centroids = new_centroids
        if shift < CENTROID_TOL:
            break
    resp = softmax_memberships(encoded_t, centroids, beta, out=resp, scratch=scratch)
    return np.ascontiguousarray(resp.T)[inv]


def _byte_ranks(arity):
    """Rank of each level ``0..arity-1``, as an int64, in the order of its raw
    bytes: the order ``estimators.distinct`` sorts void row keys in (2.0
    before 1.0)."""
    ranks = np.empty(arity, dtype=np.int64)
    ranks[np.argsort(np.arange(arity, dtype=float).view(">u8"))] = np.arange(arity)
    return ranks


def _distinct_rows(raw, codes, scope, schema):
    """``first`` and ``inv`` of the rows of ``raw``, keyed by their bytes,
    from ``estimators.distinct``: what ``np.unique`` gives over those keys."""
    keys = _level_keys(raw, codes, scope, schema)
    if keys is None:
        keys = raw.view(np.dtype((np.void, raw.itemsize * raw.shape[1]))).ravel()
    return estimators.distinct(keys)


def _level_keys(raw, codes, scope, schema):
    """One int64 per row of ``raw`` that sorts as the row's bytes do, or ``None``.

    ``codes`` are the int64 levels of the scope's categorical columns, in
    scope order, as ``_checked`` makes them.  Only an all-categorical scope
    gets keys, and not if ``raw`` holds a ``-0.0`` (its bytes differ from
    ``0.0``'s) or needs a rank table past ``_MAX_KEYED_ARITY`` or more keys
    than ``estimators.key_places`` folds.  Each level maps to its byte rank
    (levels 0 and 1 keep their value), and the ranks fold into one key.
    """
    if not all(schema.is_cat(v) for v in scope):
        return None
    arities = [schema[v].arity for v in scope]
    places = estimators.key_places(arities)
    if places is None or max(arities) > _MAX_KEYED_ARITY or np.signbit(raw).any():
        return None
    wide = [j for j, a in enumerate(arities) if a > 2]
    if wide:
        codes = codes.copy()
        for j in wide:
            codes[:, j] = _byte_ranks(arities[j])[codes[:, j]]
    return codes @ places


def _normalize(joint):
    """Column-wise log-sum-exp of ``(K, n)`` log joints: ``(memberships, row log-likelihoods)``.

    The memberships are written over ``joint``.  A row whose terms are all
    ``-inf`` gets the max floored at 0, as ``scipy.special.logsumexp`` does.
    """
    top = joint.max(axis=0)
    top[~np.isfinite(top)] = 0.0
    joint -= top
    expd = np.exp(joint, out=joint)
    total = expd.sum(axis=0)
    expd /= total
    return expd, np.log(total) + top


def em_factorized(
    matrix,
    weights,
    scope,
    schema,
    k: int,
    max_iter: int = 100,
    alpha: float = 0.01,
    rng=None,
    init_membership=None,
):
    """Weighted EM for a mixture of fully factorized distributions.

    Always returns ``(membership, FactorizedMixture)``.  The weighted train
    log-likelihood is nondecreasing across iterations; iteration stops
    when the improvement drops below ``CONVERGENCE_TOL`` or after
    ``max_iter`` steps, and the mixture's ``ll_trace`` holds that
    log-likelihood after each step (``[]`` for k = 1, which fits one
    component and iterates not at all).  ``max_iter`` must be at least 1,
    else ``ValueError``.  Unless ``init_membership`` is supplied,
    responsibilities are seeded from a short soft k-means pass, drawn from
    ``rng`` (``default_rng(0)`` when ``None``).

    Each iteration is a few whole-matrix steps over all K components at
    once, the ``(K, g, n)`` Gaussian deviations written into one buffer per
    call and the log-sum-exp done in place on the log joints.  The
    categorical scope columns form an ``(n, L)`` one-hot matrix
    ``E`` (each variable at its own offset) and the continuous ones an
    ``(n, g)`` matrix ``X``.  The effective weights ``W = weights * resp``
    have entries below ``estimators.EPSILON_W`` zeroed, as the leaf fits
    drop them.  The M-step takes multinomial counts from ``Eᵀ·W`` and
    Gaussian means and Bessel-corrected deviations from ``X`` and ``W``,
    with ``fit_multinomial``'s and ``fit_gaussian``'s formulas; a
    component whose prior falls below ``COLLAPSE_TOL``, or that keeps no
    row, restarts from the heaviest row alone.  The E-step sums the log
    prior, the categorical log probabilities and the Gaussian log
    densities, then normalises with a log-sum-exp.  The mixture's leaf
    distributions are built once, from the last M-step, and the returned
    memberships are its posterior, evaluated leaf by leaf
    (``leaf_log_pdf``, one call per component and variable), a categorical
    leaf as a ``CategoricalTable`` read at the codes checked on entry.

    Raises ``ValueError`` if a categorical scope column holds a value
    that is not an integer in ``[0, arity)`` (``estimators.categorical_codes``),
    if a continuous one fails ``estimators.continuous_values``, if
    ``weights`` fails ``estimators.check_weights``, one per row, or if
    ``init_membership`` fails ``check_membership``.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if rng is None:
        rng = np.random.default_rng(0)
    matrix, weights, icodes = _checked(matrix, weights, scope, schema)
    n = matrix.shape[0]
    if init_membership is not None:
        init_membership = check_membership(init_membership, n)
    k = min(k, n)
    if k == 1:
        comp = estimators.fit_factorized(matrix, weights, scope, schema, alpha)
        return np.ones((n, 1)), FactorizedMixture(np.ones(1), [comp], tuple(scope))

    cats = [v for v in scope if schema.is_cat(v)]
    conts = [v for v in scope if not schema.is_cat(v)]
    arities = np.array([schema[v].arity for v in cats], dtype=np.int64)

    resp = init_membership
    if resp is None:
        resp = _kmeans(matrix, weights, icodes, scope, schema, k, beta=4.0, max_iter=10, rng=rng)
    k = resp.shape[1]

    # component-major layout: responsibilities and weights are (K, n) and the
    # Gaussian deviations (K, g, n), so every reduction runs along the rows
    resp = resp.T
    offsets = np.cumsum(arities) - arities
    onehot = np.zeros((n, int(arities.sum())))
    np.put_along_axis(onehot, icodes + offsets, 1.0, axis=1)
    slot_arity = np.repeat(arities, arities)
    slot_alpha = slot_arity * alpha
    x_t = np.ascontiguousarray(matrix[:, conts].T)
    dev2 = np.empty((k,) + x_t.shape)
    heaviest = int(np.argmax(weights))

    prev_ll = -np.inf
    ll_trace = []
    total_w = weights.sum()
    for _ in range(max_iter):
        # M-step
        eff = weights * resp
        priors = eff.sum(axis=1) / total_w
        w = np.where(eff >= estimators.EPSILON_W, eff, 0.0)
        restart = (priors < COLLAPSE_TOL) | ~w.any(axis=1)
        if restart.any():
            # collapsed or starved component: restart it from the heaviest row
            w[restart] = 0.0
            w[restart, heaviest] = 1.0
            priors[restart] = np.maximum(priors[restart], COLLAPSE_TOL)
        priors = priors / priors.sum()
        s = w.sum(axis=1)
        probs = w @ onehot
        probs += alpha
        probs /= s[:, None] + slot_alpha
        mu = w @ x_t.T / s[:, None]
        np.subtract(x_t, mu[:, :, None], out=dev2)
        np.square(dev2, out=dev2)
        ssq = np.matmul(dev2, w[:, :, None])[:, :, 0]
        # a component with one kept row has s * s == sum(w * w) exactly
        denom = s * s - np.einsum("kn,kn->k", w, w)
        bessel = np.divide(s, denom, out=np.zeros(k), where=denom > 0.0)
        sigma = np.maximum(np.sqrt(bessel[:, None] * ssq), estimators.SIGMA_FLOOR)

        # E-step
        empty = probs == 0.0  # a level without weight, possible only with alpha = 0
        joint = np.log(np.where(empty, 1.0, probs)) @ onehot.T
        if empty.any():
            joint[empty @ onehot.T > 0] = -np.inf
        joint += np.matmul((-0.5 / sigma**2)[:, None, :], dev2)[:, 0, :]
        joint += (np.log(priors) - (np.log(sigma) + estimators.LOG_SQRT_2PI).sum(axis=1))[:, None]
        resp, row_ll = _normalize(joint)
        ll = float(np.dot(weights, row_ll))
        ll_trace.append(ll)
        if ll - prev_ll < CONVERGENCE_TOL and np.isfinite(prev_ll):
            break
        prev_ll = ll

    leaves = {v: [Gaussian(float(m), float(sd)) for m, sd in zip(mu[:, j], sigma[:, j])]
              for j, v in enumerate(conts)}
    for v, lo, a in zip(cats, offsets, arities):
        leaves[v] = [Multinomial(tuple(row.tolist())) for row in probs[:, lo : lo + a]]
    components = [[leaves[v][i] for v in scope] for i in range(k)]
    # repeats the last E-step leaf by leaf: bench/spans.py counts EM work
    # as leaf_log_pdf calls under an em_factorized call.  A categorical leaf
    # goes in as a table of its log probabilities, read at the entry's codes
    codes = dict(zip(cats, icodes.T))
    with np.errstate(divide="ignore"):  # the log of a level without weight
        joint = np.log(priors)[:, None] + np.array(
            [sum(leaf_log_pdf(CategoricalTable(np.log(np.asarray(dist.probs))), codes[v])
                 if v in codes else leaf_log_pdf(dist, matrix[:, v])
                 for v, dist in zip(scope, comp))
             for comp in components]
        )
    resp, _ = _normalize(joint)
    return np.ascontiguousarray(resp.T), FactorizedMixture(priors, components, tuple(scope), ll_trace)


def harden(membership):
    """One-hot each row at its argmax (ties to the lowest cluster index).

    Clusters that never win are dropped, reducing the cluster count.
    """
    membership = np.asarray(membership, dtype=float)
    n, k = membership.shape
    winners = np.argmax(membership, axis=1)
    hard = np.zeros((n, k))
    hard[np.arange(n), winners] = 1.0
    nonempty = hard.sum(axis=0) > 0
    return hard[:, nonempty]
