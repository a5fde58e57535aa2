"""Weighted univariate leaf distributions: fitting and evaluation.

Row weights are treated as frequencies.  Multinomial counts are weighted
sums per class (optionally Laplace-smoothed); Gaussian parameters use the
weighted mean and the weighted Bessel-corrected standard deviation.

Three input rules live here, one function each: ``check_weights`` for
the per-row weights of the clusterers and the independence tests,
``continuous_values`` for continuous values and ``categorical_codes`` for
categorical levels.  Beside the last, ``key_places`` folds a row of those
codes into one int64 key, the one fold that soft k-means' distinct rows
and ``Circuit.log_density``'s repeated rows both use, and ``distinct``
groups equal keys, for those two and for ``independence.discretize``'s
distinct values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Weights below this are treated as zero and dropped before fitting.
EPSILON_W = 1e-6

# Lower bound on Gaussian scale; also the fallback for degenerate fits
# (single point, or effective sample size of one).
SIGMA_FLOOR = 1e-3

# Bounds on what the learners accept, checked where the input enters: a
# continuous value in a CSV file or at a learner's entry, from
# ``WeightedDataset`` to ``fit_gaussian`` (``continuous_values``), and a
# dataset's total row weight and the pseudo-count ``alpha``.  A Gaussian
# fit sums the weights' squares and the weighted squared deviations, each
# term at most ``(2 * CONT_MAX_ABS) ** 2``, and its leaf divides deviations
# by a sigma as small as ``SIGMA_FLOOR``; a multinomial fit divides by the
# total weight plus ``arity * alpha``.  Within both bounds all of these stay
# finite.  Beyond them, values near 1e154, weights totalling about 1e308 or
# an ``alpha`` near 1e308 overflowed into non-finite sigmas or
# probabilities that no longer sum to 1.
CONT_MAX_ABS = 1e100
MAX_TOTAL_WEIGHT = 1e100

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# An interval on a Gaussian leaf of standardised width w and midpoint z
# takes the midpoint rule in ``leaf_log_mass`` where w * max(1, |z|) is
# below this.  Swept against 50-digit mpmath on N(0, 1) and N(0.25, 1e-3),
# midpoints in [-1000, 1000] and widths 1e-15 to 100 sigma, the worst log
# error of the log_ndtr difference falls as the threshold rises (1.8e-9 at
# 1e-4, 2.9e-10 at 1e-3) and the rule's grows (1.6e-10 at 2e-2); at 1e-2
# the worst within 37 sigma is 1.6e-11, the least of the thresholds tried,
# and beyond 37 sigma 6.9e-14 of the log mass
_NARROW_TAU = 1e-2
# Past this many sigma (the mirrored upper bound b < -_DEEP_TAIL) the
# difference of the two log_ndtr in ``leaf_log_mass`` is taken in its
# asymptotic form instead: the two values lie near -b**2 / 2, where a float
# step of them can exceed their difference, which then rounds to 0 (about
# 3e7 sigma out, an interval one float step wide read -inf).  On the grid
# above, widened to midpoints of 1e5 sigma, and on 72 intervals 1 to 1e5
# float steps wide at 1e6 to 1e12 sigma, every threshold from 150 to 1e5
# gave the same worst errors: 1.6e-11 within 37 sigma, and relative ones of
# 6.9e-14 beyond and 3.1e-16 on those 72 (at 100, 3.5e-13 beyond; at 1e6,
# 2.6e-15 on the 72)
_DEEP_TAIL = 1e3


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


def check_weights(weights, n_rows: int) -> np.ndarray:
    """``weights`` as a float array; ``ValueError`` unless it holds one
    finite, positive weight per row: shape ``(n_rows,)``.  The rule of the
    clusterers' and the independence tests' per-row weights, and of
    ``WeightedDataset``'s, which bounds them further."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n_rows,):
        raise ValueError(f"weights must have shape ({n_rows},), got {weights.shape}")
    # a NaN compares false against any bound, so it needs its own test
    if not (np.isfinite(weights) & (weights > 0)).all():
        raise ValueError("weights must be finite and positive")
    return weights


def _clean(values, weights):
    """The leaf fits' rule: ``values`` and ``weights`` are 1-d, nonempty and
    of equal length, every weight finite and nonnegative (``ValueError``
    otherwise); rows weighing less than ``EPSILON_W`` are dropped."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape or values.ndim != 1:
        raise ValueError("values and weights must be 1-d arrays of equal length")
    if values.size == 0:
        raise ValueError("empty column")
    # np.min propagates a NaN, which fails the bound; two reductions and no
    # temporaries, as every leaf of every learned circuit passes here
    if not (weights.min() >= 0 and weights.max() < np.inf):
        raise ValueError("weights must be finite and nonnegative")
    keep = weights >= EPSILON_W
    values, weights = values[keep], weights[keep]
    if values.size == 0:
        raise ValueError("all weights below threshold")
    return values, weights


def fit_multinomial(values, weights, arity: int, alpha: float = 0.0) -> Multinomial:
    """Fit a weighted multinomial with per-class pseudo-count ``alpha``.

    P(class j) = (C_j + alpha) / (sum_l C_l + arity * alpha), where C_j is
    the total weight of rows with value j.  Weights follow ``_clean``'s
    rule: finite and nonnegative, those below ``EPSILON_W`` dropped.
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
    fall back to ``SIGMA_FLOOR``.  Values follow ``continuous_values``'
    rule and weights ``_clean``'s, as in ``fit_multinomial``.
    """
    values, weights = _clean(continuous_values(values), weights)
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
    """Categorical leaves as a table of log probabilities, taken once:
    ``log_probs`` is one leaf's ``(arity,)`` row or stacked leaves' ``(k,
    arity)`` table.
    ``leaf_log_pdf`` reads it with codes that the caller has checked, as
    ``categorical_codes`` does: it clips a code out of range, it does not
    reject it."""

    log_probs: np.ndarray


def categorical_codes(values, arity):
    """``values`` as int64 codes; ``ValueError`` unless each is an integer
    in ``[0, arity)``.  ``arity`` broadcasts against ``values``.  The one
    check of categorical levels, for every entry that takes them."""
    values = np.asarray(values)
    with np.errstate(invalid="ignore"):  # a NaN casts to some integer and fails the check
        codes = values.astype(np.int64)
    # negative codes wrap to huge unsigned ones, so one bound covers both ends
    if (codes != values).any() or (codes.view(np.uint64) >= np.asarray(arity, np.uint64)).any():
        raise ValueError("categorical value out of range: each must be an integer in [0, arity)")
    return codes


def continuous_values(values, what="continuous values"):
    """``values`` as floats; ``ValueError`` unless each is finite and at
    most ``CONT_MAX_ABS`` in magnitude, the message calling them ``what``.
    The one check of continuous values, for every entry of the learners
    that takes them; it also keeps out of ``distinct`` a NaN, which equals
    no value and so would join no group."""
    values = np.asarray(values, dtype=float)
    if not (np.abs(values) <= CONT_MAX_ABS).all():  # a NaN fails the bound too
        if not np.isfinite(values).all():
            raise ValueError(f"{what} must be finite")
        raise ValueError(f"{what} must be at most {CONT_MAX_ABS:g} in magnitude")
    return values


def key_places(arities):
    """Mixed-radix place values that fold a row of codes into one int64
    key, ``codes @ key_places(arities)``, the first column most
    significant, so that keys sort as the rows do column by column; None
    if the product of the arities, the number of keys, is past ``2**62``."""
    if math.prod(arities) > 2**62:
        return None
    places = np.ones(len(arities), dtype=np.int64)
    places[:-1] = np.cumprod(arities[:0:-1], dtype=np.int64)[::-1]
    return places


def distinct(keys):
    """``(first, inverse)`` as ``np.unique(keys, return_index=True,
    return_inverse=True)`` gives them: each distinct key's first row, in
    key order, and each row's group, the position of its key among the
    distinct ones.  ``keys`` is 1-d: int64 codes, raw-byte (void) row keys
    or floats without a NaN, which equals no key and so joins no group.

    One unstable ``argsort`` orders the rows, one ``!=`` pass over the
    sorted keys marks where each group starts, and the smallest row index
    of each group is its first; so equal keys, ``0.0`` and ``-0.0``
    among them, share a group whatever order the sort leaves them in."""
    order = keys.argsort()
    ranked = keys[order]
    # [:len(keys)] keeps no keys as no groups
    starts = np.concatenate(([True], ranked[1:] != ranked[:-1]))[:len(keys)]
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    return first, inverse


def leaf_log_pdf(dist, x, out=None):
    """Log pmf/pdf of a leaf; broadcasts over array ``x`` and stacked parameters.

    With ``out``, a float array of the result's shape, the values are
    written into it and it is returned, so that a stacked leaf fills its
    block of a larger table without a temporary.  The values are the same
    bits either way.
    """
    if isinstance(dist, CategoricalTable):
        # mode="clip" lets take write into ``out`` unbuffered; the codes are checked
        return dist.log_probs.take(np.asarray(x).astype(np.intp), axis=-1, out=out, mode="clip")
    if isinstance(dist, Multinomial):
        with np.errstate(divide="ignore"):
            logp = np.log(np.asarray(dist.probs))
        out = logp.take(categorical_codes(x, logp.shape[-1]), axis=-1, out=out)
    elif isinstance(dist, Gaussian):
        # -0.5 * z * z - log(sigma) - log(sqrt(2 pi)) with z = (x - mu) / sigma,
        # in place; (-0.5 * z) * z in that order, as z * z alone overflows sooner
        out = np.subtract(np.asarray(x, dtype=float), dist.mu, out=out)
        out /= dist.sigma
        out *= -0.5 * out
        out -= np.log(dist.sigma)
        out -= LOG_SQRT_2PI
    else:
        raise TypeError(f"unknown leaf distribution {type(dist)!r}")
    return float(out) if out.ndim == 0 else out


def leaf_log_mass(dist, lo, hi, out=None):
    """Log mass on the interval ``[lo, hi]`` of a Gaussian leaf; broadcasts
    over stacked parameters and takes ``out`` as ``leaf_log_pdf`` does.

    ``lo <= hi`` are scalars, either of them infinite.  Both are
    standardised, and an interval whose midpoint lies above the mean is
    mirrored below it, ``(a, b) = (-z_hi, -z_lo)``: negation is exact, so
    an interval and its mirror image have one mass to the bit.  Below the
    mean the mass is ``log Phi(b) + log(1 - Phi(a) / Phi(b))`` through
    ``log_ndtr``, which does not underflow in the tail.  Where the two
    ``log_ndtr`` would cancel, on an interval of standardised width ``w``
    and midpoint ``z`` with ``w * max(1, |z|) < _NARROW_TAU``, the
    midpoint rule takes over: ``log phi(z) + log w + log1p((z**2 - 1) *
    w**2 / 24)``; an interval at least ``_NARROW_TAU`` of the widest
    sigma wide skips that test, as no leaf of the block can pass it.  Deep in the tail, for ``b < -_DEEP_TAIL``, the
    difference ``log Phi(a) - log Phi(b)`` is taken in its asymptotic form,
    ``-(a - b)(a + b) / 2 - log1p((a - b) / b)``: the two terms lie near
    ``-b**2 / 2``, where their difference can round to 0.  A point interval
    has no mass, at +-inf too.  A bound that standardises to +-inf gives
    the limit, and the warnings of that arithmetic are left to the caller's
    ``np.errstate``, as the evaluator's leaf layer sets it.
    """
    lo, hi = float(lo), float(hi)
    za, zb = (lo - dist.mu) / dist.sigma, (hi - dist.mu) / dist.sigma
    # below the mean (za <= -zb) these are za and zb, above it -zb and -za
    a, b = np.minimum(za, -zb), np.minimum(zb, -za)
    log_b = _log_ndtr(b)
    gap = _log_ndtr(a) - log_b
    deep = b < -_DEEP_TAIL
    if deep.any():
        gap = np.where(deep, (b - a) * (a + b) / 2 - np.log1p((a - b) / b), gap)
    mass = log_b + np.log(-np.expm1(gap))
    # a width of _NARROW_TAU in the widest sigma is at least that in every
    # sigma (a division by less rounds to no less), and max(z, 1) >= 1
    if (hi - lo) / np.max(dist.sigma) < _NARROW_TAU:
        w = (hi - lo) / dist.sigma
        z = -0.5 * (a + b)  # |z_m|, the same bits for an interval and its mirror
        narrow = w * np.maximum(z, 1.0) < _NARROW_TAU
        if narrow.any():
            mid = -0.5 * z * z - LOG_SQRT_2PI + np.log(w) + np.log1p(((z * w) ** 2 - w * w) / 24)
            mass = np.where(narrow, mid, mass)
    # a NaN comes of -inf - -inf, where both bounds lie past the
    # float range of one tail (a point at +-inf among them): no mass
    out = np.fmax(mass, -np.inf, out=out)
    return float(out) if out.ndim == 0 else out


def _log_ndtr(x):
    """``scipy.special.log_ndtr``, imported on the first call: scipy.special
    adds about 0.3 s to importing softpc, and only interval queries need
    it.  The first call rebinds this name to the ufunc itself, so later
    calls go straight to it."""
    global _log_ndtr
    from scipy.special import log_ndtr

    _log_ndtr = log_ndtr
    return log_ndtr(x)
