"""Timing normalised to the host's speed at the moment of measurement.

On a shared machine the same code runs up to a third slower for seconds
at a time.  Each timed operation is therefore bracketed by a fixed
calibration block of mixed interpreter and numpy work, and its wall time
is scaled by ``NOMINAL_UNIT_S / (calibration time per block)``: a time in
seconds on a host that runs the block in ``NOMINAL_UNIT_S``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_UNIT_S = 0.0017  # typical block time on a 2-core Xeon VM
WARM_UP_S = 1.5

_MATRIX = np.random.default_rng(1).random((120, 120))
_VECTOR = np.random.default_rng(2).random(20000)


def _unit() -> int:
    total = 0
    for i in range(20000):
        total += i * i
    _MATRIX @ _MATRIX
    np.log(np.sort(_VECTOR)).sum()
    return total


def unit_seconds(units: int) -> float:
    """Mean wall time of one calibration block over ``units`` blocks."""
    t0 = perf_counter()
    for _ in range(units):
        _unit()
    return (perf_counter() - t0) / units


class Clock:
    """Times calls in host-speed-normalised seconds."""

    def __init__(self):
        # after a quiet spell the host runs about eight times slower for up to a second
        t0 = perf_counter()
        while perf_counter() - t0 < WARM_UP_S:
            _unit()

    def time(self, units: int, fn, *args):
        """Return ``(fn(*args), normalised seconds)``, calibrating with
        ``units`` blocks before and after the call."""
        before = unit_seconds(units)
        t0 = perf_counter()
        result = fn(*args)
        raw = perf_counter() - t0
        after = unit_seconds(units)
        return result, raw * 2.0 * NOMINAL_UNIT_S / (before + after)
