"""Cumulative integration of continuous signals.

Energy counters (RAPL's 32-bit energy-status registers, the Xeon Phi's
internal RAPL implementation) expose the *integral* of power.  The
:class:`CumulativeIntegral` evaluates a signal's running integral on a
cached dense grid and interpolates, so repeated counter reads are O(log n)
after the first and every reader sees one consistent energy history.
"""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np

from repro.errors import SimulationError
from repro.sim.signals import Signal


#: Grid points evaluated per signal call while extending.
_SLICE_POINTS = 1 << 16


class StampedHistory:
    """A lazily grown cached history that is rebuilt when its stamp changes.

    ``stamp`` is an optional callable returning a version of everything
    the history depends on (e.g. a load board's version and a power
    cap's).  A subclass defines ``_reset`` (drop the cache) and calls
    :meth:`_refresh` before reading its grid, so a workload scheduled or
    a cap written after a read is not served stale.
    """

    def __init__(self, stamp: Callable[[], Hashable] | None = None):
        self._stamp = stamp
        self._version = stamp() if stamp is not None else None
        self._reset()

    def _reset(self) -> None:
        raise NotImplementedError

    def _refresh(self) -> None:
        """Discard the cached history if the stamp moved since it was built."""
        if self._stamp is not None:
            version = self._stamp()
            if version != self._version:
                self._version = version
                self._reset()


class CumulativeIntegral(StampedHistory):
    """Lazy cached cumulative integral of a signal from t=0.

    Parameters
    ----------
    signal:
        The integrand (e.g. package power in watts).  Its ``value`` may
        return one row per time, or a ``(rows, n)`` block that
        integrates several signals on one shared grid (read it through
        :meth:`grid`).
    dt:
        Grid resolution in seconds.  1 ms resolves every feature the
        device models produce (the fastest is RAPL's ~1 ms update).
    stamp:
        Optional version callable; the cached history is discarded when
        it changes (see :class:`StampedHistory`).

    Every grid value is one sequential sum of trapezoid steps from t=0,
    so the history is bit-identical however the reads were chunked.
    """

    def __init__(self, signal: Signal, dt: float = 1e-3,
                 stamp: Callable[[], Hashable] | None = None):
        if dt <= 0.0:
            raise SimulationError(f"integration dt must be positive, got {dt}")
        self.signal = signal
        self.dt = float(dt)
        super().__init__(stamp)

    def _reset(self) -> None:
        self._grid_end = 0.0
        self._grid_n = 0
        self._times = np.zeros(1)
        self._cumulative = np.zeros(1)

    def _extend(self, t_end: float) -> None:
        """Grow the cached grid to cover [0, t_end]."""
        # Extend in generous chunks to amortize signal evaluation.
        target = max(t_end * 1.25, self._grid_end + 64.0 * self.dt)
        n_new = int(np.ceil((target - self._grid_end) / self.dt))
        start = self._grid_n + 1
        size = start + n_new
        times = np.empty(size)
        times[:start] = self._times
        cumulative = None
        # The new points are evaluated a slice at a time, which bounds
        # the temporaries of a long extension; the sequential sum makes
        # the slicing invisible in the result.
        for lo in range(start, size, _SLICE_POINTS):
            hi = min(lo + _SLICE_POINTS, size)
            # Grid points come from their integer index (dt * k), never
            # from offsetting the previous point.
            times[lo:hi] = self.dt * np.arange(lo, hi).astype(np.float64)
            # Trapezoid over each new step, from the last grid point.
            eval_times = times[lo - 1:hi]
            values = self.signal.value(eval_times)
            # In place, but the same operations in the same order as
            # 0.5 * (a + b) * dt, so the grid stays bit for bit.
            steps = values[..., 1:] + values[..., :-1]
            del values
            steps *= 0.5
            steps *= np.diff(eval_times)
            if cumulative is None:
                cumulative = np.empty(steps.shape[:-1] + (size,))
                cumulative[..., :start] = self._cumulative
            # Carrying the stored total into the first step keeps the
            # sum sequential from t=0: the same additions as one whole
            # read.
            steps[..., 0] += cumulative[..., lo - 1]
            np.cumsum(steps, axis=-1, out=cumulative[..., lo:hi])
        self._times = times
        self._cumulative = cumulative
        self._grid_n += n_new
        self._grid_end = float(times[-1])

    def grid(self, t_max: float) -> tuple[np.ndarray, np.ndarray]:
        """``(times, cumulative)`` of the cached grid, grown to cover
        ``t_max``; ``cumulative`` has one row per signal row."""
        self._refresh()
        # The first extension also fixes the number of rows.
        if t_max > self._grid_end or not self._grid_n:
            self._extend(t_max)
        return self._times, self._cumulative

    def value(self, t: np.ndarray | float) -> np.ndarray:
        """Integral of the signal over [0, t]; vectorized over ``t``."""
        times = np.asarray(t, dtype=np.float64)
        if np.any(times < 0.0):
            raise SimulationError("cannot integrate to negative time")
        grid_t, cumulative = self.grid(float(np.max(times, initial=0.0)))
        return np.interp(times, grid_t, cumulative)

    def between(self, t0: float, t1: float) -> float:
        """Integral over [t0, t1]."""
        if t1 < t0:
            raise SimulationError(f"integration window inverted: [{t0}, {t1}]")
        ends = self.value(np.array([t0, t1]))
        return float(ends[1] - ends[0])
