"""Weighted univariate leaf distributions: fitting and evaluation.

Row weights are treated as frequencies.  Multinomial counts are weighted
sums per class (optionally Laplace-smoothed); Gaussian parameters use the
weighted mean and the weighted Bessel-corrected standard deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

# Weights below this are treated as zero and dropped before fitting.
EPSILON_W = 1e-6

# Lower bound on Gaussian scale; also the fallback for degenerate fits
# (single point, or effective sample size of one).
SIGMA_FLOOR = 1e-3

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Multinomial:
    probs: tuple

    @property
    def arity(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class Gaussian:
    mu: float
    sigma: float


def _clean(values, weights):
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape or values.ndim != 1:
        raise ValueError("values and weights must be 1-d arrays of equal length")
    if values.size == 0:
        raise ValueError("empty column")
    keep = weights >= EPSILON_W
    values, weights = values[keep], weights[keep]
    if values.size == 0:
        raise ValueError("all weights below threshold")
    return values, weights


def fit_multinomial(values, weights, arity: int, alpha: float = 0.0) -> Multinomial:
    """Fit a weighted multinomial with per-class pseudo-count ``alpha``.

    P(class j) = (C_j + alpha) / (sum_l C_l + arity * alpha), where C_j is
    the total weight of rows with value j.
    """
    values, weights = _clean(values, weights)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    counts = np.bincount(categorical_codes(values, arity), weights=weights, minlength=arity)
    probs = (counts + alpha) / (counts.sum() + arity * alpha)
    return Multinomial(tuple(probs.tolist()))


def fit_gaussian(values, weights) -> Gaussian:
    """Fit a weighted Gaussian with Bessel's correction.

    sigma^2 = S / (S^2 - Q) * sum_i v_i (d_i - mu)^2 with S = sum v_i and
    Q = sum v_i^2.  Degenerate inputs (one point, S^2 == Q, or zero spread)
    fall back to ``SIGMA_FLOOR``.
    """
    values, weights = _clean(values, weights)
    s = weights.sum()
    mu = float(np.dot(weights, values) / s)
    q = float(np.dot(weights, weights))
    denom = s * s - q
    if values.size < 2 or denom <= 0.0:
        return Gaussian(mu, SIGMA_FLOOR)
    ssq = float(np.dot(weights, (values - mu) ** 2))
    sigma = math.sqrt(max(s / denom * ssq, 0.0))
    return Gaussian(mu, max(sigma, SIGMA_FLOOR))


def fit_factorized(matrix, weights, scope, schema, alpha: float = 0.0) -> list:
    """Fit one leaf distribution per ``scope`` variable, in scope order.

    Categorical columns get ``fit_multinomial`` with pseudo-count
    ``alpha``; continuous columns get ``fit_gaussian``.
    """
    dists = []
    for v in scope:
        if schema.is_cat(v):
            dists.append(fit_multinomial(matrix[:, v], weights, schema[v].arity, alpha))
        else:
            dists.append(fit_gaussian(matrix[:, v], weights))
    return dists


@dataclass(frozen=True)
class CategoricalTable:
    """Categorical leaves stacked for repeated evaluation: ``log_probs`` is
    their ``(k, arity)`` table of log probabilities, taken once.
    ``leaf_log_pdf`` reads it with codes that the caller has checked, as
    ``categorical_codes`` does."""

    log_probs: np.ndarray


def categorical_codes(values, arity):
    """``values`` as int64 codes; ``ValueError`` unless each is an integer
    in ``[0, arity)``.  ``arity`` broadcasts against ``values``."""
    values = np.asarray(values)
    with np.errstate(invalid="ignore"):  # a NaN casts to some integer and fails the check
        codes = values.astype(np.int64)
    # negative codes wrap to huge unsigned ones, so one bound covers both ends
    if (codes != values).any() or (codes.view(np.uint64) >= np.asarray(arity, np.uint64)).any():
        raise ValueError("categorical value out of range")
    return codes


def leaf_log_pdf(dist, x):
    """Log pmf/pdf of a leaf; broadcasts over array ``x`` and stacked parameters."""
    if isinstance(dist, CategoricalTable):
        return dist.log_probs.take(np.asarray(x).astype(np.intp), axis=1)
    if isinstance(dist, Multinomial):
        with np.errstate(divide="ignore"):
            logp = np.log(np.asarray(dist.probs))
        out = logp[..., categorical_codes(x, logp.shape[-1])]
    elif isinstance(dist, Gaussian):
        z = (np.asarray(x, dtype=float) - dist.mu) / dist.sigma
        out = -0.5 * z * z - np.log(dist.sigma) - _LOG_SQRT_2PI
    else:
        raise TypeError(f"unknown leaf distribution {type(dist)!r}")
    return float(out) if out.ndim == 0 else out


def gaussian_cdf(dist: Gaussian, x):
    """Gaussian CDF via the complementary error function; broadcasts like ``leaf_log_pdf``."""
    z = (np.asarray(x, dtype=float) - dist.mu) / dist.sigma
    return 0.5 * erfc(-z / _SQRT2)
