"""Weighted instance clustering producing soft or hard memberships.

Two clusterers are provided: a soft k-means whose responsibilities come
from a softmax over normalized centroid distances (sharpness ``beta``),
and EM over a mixture of fully factorized univariate distributions.  Both
accept per-row weights, treated as frequencies throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import estimators
from .estimators import leaf_log_pdf

CENTROID_TOL = 1e-6
COLLAPSE_TOL = 1e-8


@dataclass
class FactorizedMixture:
    """K fully factorized components over a scope, with mixing priors."""

    priors: np.ndarray  # (K,)
    components: list  # K lists of LeafDists, aligned with the scope order
    scope: tuple


def encode_rows(matrix, weights, scope, schema):
    """Encode scope columns for distance computation.

    Categorical columns are one-hot encoded; continuous columns are
    standardized by their weighted mean/std (zero-variance columns pass
    through unchanged).
    """
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


def softmax_memberships(encoded, centroids, beta: float):
    """Responsibilities softmax(beta * (1 - ||d - C_i|| / sum_j ||d - C_j||))."""
    dists = np.linalg.norm(encoded[:, None, :] - centroids[None, :, :], axis=2)
    denom = dists.sum(axis=1, keepdims=True)
    # a point exactly on every centroid has no preference
    safe = np.where(denom > 0, denom, 1.0)
    rel = beta * (1.0 - dists / safe)
    rel -= rel.max(axis=1, keepdims=True)
    resp = np.exp(rel)
    resp /= resp.sum(axis=1, keepdims=True)
    resp[denom[:, 0] == 0] = 1.0 / centroids.shape[0]
    return resp


def _kmeanspp_init(encoded, weights, k, rng):
    # weighted k-means++: first seed by row weight, then by weight * D^2
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

    Rows that are identical on the scope are clustered once, as one
    distinct row carrying the sum of their weights, and share their
    responsibilities; the k-means++ draws and a starved cluster's re-seed
    still pick among the original rows, so the random stream is the same
    as with every row clustered separately.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    k = min(k, n)
    encoded = encode_rows(matrix, weights, scope, schema)
    if k == 1:
        return np.ones((n, 1))

    centroids = _kmeanspp_init(encoded, weights, k, rng)
    row_bytes = np.dtype((np.void, encoded.itemsize * encoded.shape[1]))
    _, first, inv = np.unique(
        np.ascontiguousarray(encoded).view(row_bytes).ravel(),
        return_index=True,
        return_inverse=True,
    )
    distinct = encoded[first]
    del encoded  # only the distinct rows are kept through the iterations
    group_w = np.bincount(inv, weights=weights, minlength=first.size)
    for _ in range(max_iter):
        resp = softmax_memberships(distinct, centroids, beta)
        eff = group_w[:, None] * resp
        mass = eff.sum(axis=0)
        new_centroids = centroids.copy()
        for i in range(k):
            if mass[i] > COLLAPSE_TOL:
                new_centroids[i] = eff[:, i] @ distinct / mass[i]
            else:
                # re-seed a starved cluster at the point farthest from its centroid
                dists = np.linalg.norm(distinct - centroids[i], axis=1)
                new_centroids[i] = distinct[inv[int(np.argmax(weights * dists[inv]))]]
        shift = np.abs(new_centroids - centroids).max()
        centroids = new_centroids
        if shift < CENTROID_TOL:
            break
    return softmax_memberships(distinct, centroids, beta)[inv]


def _component_loglik(matrix, scope, component):
    ll = np.zeros(matrix.shape[0])
    for v, dist in zip(scope, component):
        ll += leaf_log_pdf(dist, matrix[:, v])
    return ll


def em_factorized(
    matrix,
    weights,
    scope,
    schema,
    k: int,
    max_iter: int = 100,
    tol: float = 1e-4,
    alpha: float = 0.01,
    rng=None,
    init_membership=None,
    return_trace: bool = False,
):
    """Weighted EM for a mixture of fully factorized distributions.

    Returns ``(membership, FactorizedMixture)``.  The weighted train
    log-likelihood is nondecreasing across iterations; iteration stops
    when the improvement drops below ``tol`` or after ``max_iter`` steps.
    Unless ``init_membership`` is supplied, responsibilities are seeded
    from a short soft k-means pass, drawn from ``rng`` (``default_rng(0)``
    when ``None``).  With ``return_trace`` the per-iteration weighted
    log-likelihoods are returned as a third value.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    matrix = np.asarray(matrix, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    k = min(k, n)
    if k == 1:
        comp = estimators.fit_factorized(matrix, weights, scope, schema, alpha)
        out = np.ones((n, 1)), FactorizedMixture(np.ones(1), [comp], tuple(scope))
        return (*out, []) if return_trace else out

    if init_membership is not None:
        resp = np.asarray(init_membership, dtype=float)
    else:
        resp = soft_kmeans(matrix, weights, scope, schema, k, beta=4.0, max_iter=10, rng=rng)
    k = resp.shape[1]

    mixture = None
    prev_ll = -np.inf
    ll_trace = []
    total_w = weights.sum()
    for _ in range(max_iter):
        # M-step
        eff = weights[:, None] * resp
        priors = eff.sum(axis=0) / total_w
        components = []
        for i in range(k):
            try:
                if priors[i] < COLLAPSE_TOL:
                    raise ValueError("collapsed component")
                comp = estimators.fit_factorized(matrix, eff[:, i], scope, schema, alpha)
            except ValueError:
                # collapsed or starved component: restart it from a high-weight row
                j = int(np.argmax(weights))
                comp = estimators.fit_factorized(matrix[j : j + 1], np.ones(1), scope, schema, alpha)
                priors[i] = max(priors[i], COLLAPSE_TOL)
            components.append(comp)
        priors = priors / priors.sum()
        mixture = FactorizedMixture(priors, components, tuple(scope))

        # E-step
        joint = np.empty((n, k))
        for i in range(k):
            joint[:, i] = np.log(priors[i]) + _component_loglik(matrix, scope, components[i])
        row_ll = logsumexp(joint, axis=1)
        resp = np.exp(joint - row_ll[:, None])
        ll = float(np.dot(weights, row_ll))
        ll_trace.append(ll)
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            prev_ll = ll
            break
        prev_ll = ll
    if return_trace:
        return resp, mixture, ll_trace
    return resp, mixture


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
