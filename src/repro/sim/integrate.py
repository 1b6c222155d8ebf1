"""Cumulative integration of continuous signals.

Energy counters (RAPL's 32-bit energy-status registers, the Xeon Phi's
internal RAPL implementation) expose the *integral* of power.  The
:class:`CumulativeIntegral` evaluates a signal's running integral on a
1 ms (by default) grid and interpolates, so every reader sees one
consistent energy history.

Both it and the thermal model are :class:`StampedHistory` objects: a
history on the grid ``dt * k`` that is evaluated only as far as it is
read, in slices of ``_SLICE_POINTS`` points.  A completed slice leaves
one checkpoint (its end value); only a few slices stay dense, and a
dropped slice is recomputed from the checkpoint before it.  Memory is
bounded however far the history is read, and compute is paid once per
grid point up to the latest read.
"""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np

from repro.errors import SimulationError
from repro.sim.signals import Signal


#: Grid points per slice: the unit a history is evaluated,
#: checkpointed and recomputed in.
_SLICE_POINTS = 1 << 16

#: Completed slices a history keeps dense beside its growing tail.
_DENSE_SLICES = 2


class StampedHistory:
    """A history on the grid ``dt * k``, evaluated lazily in slices and
    rebuilt when its stamp changes.

    A subclass gives ``_origin`` (the value at k = 0, which may be a
    scalar that broadcasts over rows) and ``_evaluate(k0, k1, start,
    into)``, which writes the values at indices ``k0 + 1 .. k1``, given
    ``start``, the value at ``k0``, into the array ``into(rows)``
    returns for its row shape.  Each value depends only on the one
    before it and on the signal at grid points, so a slice recomputed
    from its checkpoint is bit-identical to the first computation.

    Slice ``j`` holds indices ``j * S .. (j + 1) * S`` (``S`` =
    ``_SLICE_POINTS``): neighbours share one point, so a time inside a
    slice is bracketed by that slice alone and interpolating there is
    bit for bit ``np.interp`` over the whole grid.

    ``stamp`` is an optional callable returning a version of everything
    the history depends on (e.g. a load board's version and a power
    cap's).  Every read calls :meth:`_refresh` first, so a workload
    scheduled or a cap written after a read is not served stale.
    """

    _origin: float | np.ndarray

    def __init__(self, dt: float, stamp: Callable[[], Hashable] | None = None):
        self.dt = float(dt)
        self._slice_points = _SLICE_POINTS
        self._stamp = stamp
        self._version = stamp() if stamp is not None else None
        self._reset()

    def _evaluate(self, k0: int, k1: int, start,
                  into: Callable[[tuple], np.ndarray]) -> None:
        raise NotImplementedError

    def _reset(self) -> None:
        """Drop the whole history, checkpoints included."""
        #: Last evaluated grid index, and its time (nothing evaluated
        #: yet: every read evaluates).
        self._n = 0
        self._end_t = -np.inf
        #: Value at index ``j * S`` of every slice reached, by ``j``.
        self._checkpoints = [self._origin]
        #: The slice being grown, with spare capacity (None until the
        #: first evaluation fixes the rows), and its first index/time.
        self._tail: np.ndarray | None = None
        self._tail_k = 0
        self._tail_t = 0.0
        #: Completed dense slices by index, least recently read first.
        self._dense: dict[int, np.ndarray] = {}

    def _refresh(self) -> None:
        """Discard the history if the stamp moved since it was built."""
        if self._stamp is not None:
            version = self._stamp()
            if version != self._version:
                self._version = version
                self._reset()

    # -- grid indices ----------------------------------------------------

    def _floor_index(self, t: float) -> int:
        """The last grid index at or before ``t``."""
        k = int(t / self.dt)
        if self.dt * k > t:
            k -= 1
        elif self.dt * (k + 1) <= t:
            k += 1
        return k

    def _ceil_index(self, t: float) -> int:
        """The first grid index at or after ``t`` (at least 1)."""
        k = self._floor_index(t)
        return max(k if self.dt * k == t else k + 1, 1)

    def _slices_of(self, times: np.ndarray) -> np.ndarray:
        """The slice whose grid points bracket each of ``times`` (the
        first slice before t=0)."""
        k = np.floor(times / self.dt).astype(np.int64)
        k -= self.dt * k > times
        k += self.dt * (k + 1) <= times
        return np.clip(k, 0, self._n - 1) // self._slice_points

    # -- evaluation --------------------------------------------------------

    def _cover(self, k_end: int) -> None:
        """Evaluate the history through grid index ``k_end``."""
        while self._n < k_end:
            j, filled = divmod(self._n, self._slice_points)
            k1 = min(k_end, (j + 1) * self._slice_points)
            size = filled + 1 + k1 - self._n
            start = (self._checkpoints[j] if self._tail is None
                     else self._tail[..., filled])
            self._evaluate(self._n, k1, start,
                           lambda rows: self._grow(rows, size)[..., filled + 1:])
            self._n = k1
            if size == self._slice_points + 1:
                tail = self._tail
                self._checkpoints.append(tail[..., -1].copy())
                self._keep(j, tail)
                self._tail = tail[..., -1:].copy()
                self._tail_k = k1
                self._tail_t = self.dt * k1
        self._end_t = self.dt * self._n

    def _grow(self, rows: tuple, size: int) -> np.ndarray:
        """The tail slice's first ``size`` points, its capacity grown to
        hold them.

        Only the tail is copied as it grows, to three times what it
        needs (up to one slice), so a history read a little further at a
        time is copied O(log n) times.  The spare capacity is never
        written, so it is not resident.

        The factor is also for glibc, whose adaptive trim threshold is
        twice the largest block freed so far: in a collect-chaos fleet
        session that block is the tail, beside ~10 n floats of other
        transient memory at the evaluation's peak.  Sized exactly, the
        heap top was trimmed and faulted back in on every session
        (~230 page faults each, ~1.5 ms a rotation); at twice the size,
        still in about one rotation in ten.  The factor is a stopgap:
        once a session's other transients shrink (the temporaries of
        ``LoadBoard.utilization``, the bank's ``(4, n)`` blocks), the
        tail can be sized exactly."""
        tail = self._tail
        if tail is None or size > tail.shape[-1]:
            filled = self._n - self._tail_k + 1
            cap = min(self._slice_points + 1, 3 * size)
            grown = np.empty(rows + (cap,))
            grown[..., :filled] = (self._origin if tail is None
                                   else tail[..., :filled])
            self._tail = tail = grown
        return tail[..., :size]

    def _keep(self, j: int, dense: np.ndarray) -> None:
        """Hold slice ``j`` dense, dropping the least recently read."""
        self._dense.pop(j, None)
        self._dense[j] = dense
        while len(self._dense) > _DENSE_SLICES:
            del self._dense[next(iter(self._dense))]

    def _slice(self, j: int) -> np.ndarray:
        """Slice ``j``'s values (the tail's with spare capacity past
        ``_n``), recomputed from its checkpoint if it was dropped."""
        if j * self._slice_points == self._tail_k:
            return self._tail
        dense = self._dense.get(j)
        if dense is None:
            k0 = j * self._slice_points
            start = self._checkpoints[j]

            def into(rows: tuple) -> np.ndarray:
                nonlocal dense
                dense = np.empty(rows + (self._slice_points + 1,))
                dense[..., 0] = start
                return dense[..., 1:]

            self._evaluate(k0, k0 + self._slice_points, start, into)
        self._keep(j, dense)
        return dense

    # -- reads -------------------------------------------------------------

    def _interp(self, dense: np.ndarray, base: int, times: np.ndarray,
                lo: float, hi: float, row: int | None = None) -> np.ndarray:
        """``np.interp`` of ``times`` (between ``lo`` and ``hi``, in the
        slice ``dense`` that starts at grid index ``base``) over just the
        grid points that bracket them.  Rows of a multi-row history read
        their own row of ``times``, or every time reads ``row``."""
        a = max(self._floor_index(lo), base)
        b = min(self._floor_index(hi) + 1, self._n, base + self._slice_points)
        xp = np.arange(a, b + 1, dtype=np.float64)
        xp *= self.dt
        fp = dense[..., a - base:b - base + 1]
        if row is not None:
            fp = fp[row]
        if fp.ndim == 1:
            return np.interp(times, xp, fp)
        if times.shape[:-1] != fp.shape[:-1]:
            raise SimulationError(
                f"a history of {fp.shape[:-1]} rows reads one row of times "
                f"per row, got times of shape {times.shape}")
        out = np.empty(times.shape)
        for got, t, f in zip(out, times, fp):
            got[...] = np.interp(t, xp, f)
        return out

    def _sample(self, times: np.ndarray) -> np.ndarray:
        """The history at ``times``, bit for bit ``np.interp`` over the
        whole grid, evaluated only through ``max(times)``.  A multi-row
        history takes one row of times per row of history."""
        self._refresh()
        if not times.size:
            return np.empty(times.shape)
        lo, hi = float(times.min()), float(times.max())
        if hi > self._end_t:
            self._cover(self._ceil_index(hi))
        if lo >= self._tail_t:
            # The common read: every time in the slice being grown.
            return self._interp(self._tail, self._tail_k, times, lo, hi)
        js = self._slices_of(times)
        out = np.empty(times.shape)
        for j in np.unique(js).tolist():
            dense, base = self._slice(j), j * self._slice_points
            mask = js == j
            if dense.ndim == 1:
                part = times[mask]
                out[mask] = self._interp(dense, base, part, float(part.min()),
                                         float(part.max()))
                continue
            for row, (got, t, m) in enumerate(zip(out, times, mask)):
                if m.any():
                    part = t[m]
                    got[m] = self._interp(dense, base, part, float(part.min()),
                                          float(part.max()), row)
        return out

    def grid(self, t_max: float) -> tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` of the whole grid, evaluated to cover
        ``t_max``: a dense copy, with one row of values per signal row."""
        self._refresh()
        self._cover(self._ceil_index(t_max))
        last = self._tail_k // self._slice_points
        values = np.concatenate(
            [self._slice(j)[..., :-1] for j in range(last)]
            + [self._tail[..., :self._n - self._tail_k + 1]], axis=-1)
        return self.dt * np.arange(self._n + 1, dtype=np.float64), values


class CumulativeIntegral(StampedHistory):
    """Lazy cumulative integral of a signal from t=0.

    Parameters
    ----------
    signal:
        The integrand (e.g. package power in watts).  Its ``value`` may
        return one row per time, or a ``(rows, n)`` block that
        integrates several signals on one shared grid (read each row
        at its own row of times through :meth:`value`, or through
        :meth:`grid`).
    dt:
        Grid resolution in seconds.  1 ms resolves every feature the
        device models produce (the fastest is RAPL's ~1 ms update).
    stamp:
        Optional version callable; the history is discarded when it
        changes (see :class:`StampedHistory`).

    Every grid value is one sequential sum of trapezoid steps from t=0,
    so the history is bit-identical however the reads were chunked.
    """

    _origin = 0.0

    def __init__(self, signal: Signal, dt: float = 1e-3,
                 stamp: Callable[[], Hashable] | None = None):
        if dt <= 0.0:
            raise SimulationError(f"integration dt must be positive, got {dt}")
        self.signal = signal
        super().__init__(dt, stamp)

    def _evaluate(self, k0: int, k1: int, start,
                  into: Callable[[tuple], np.ndarray]) -> None:
        # Grid points come from their integer index (dt * k), never from
        # offsetting the previous point.
        times = self.dt * np.arange(k0, k1 + 1, dtype=np.float64)
        values = self.signal.value(times)
        # In place in the history, but the same operations in the same
        # order as 0.5 * (a + b) * dt, so the grid stays bit for bit.
        steps = into(values.shape[:-1])
        np.add(values[..., 1:], values[..., :-1], out=steps)
        del values
        steps *= 0.5
        steps *= np.diff(times)
        # Carrying the total at k0 into the first step keeps the sum
        # sequential from t=0: the same additions as one whole read.
        steps[..., 0] += start
        np.cumsum(steps, axis=-1, out=steps)

    def value(self, t: np.ndarray | float) -> np.ndarray:
        """Integral of the signal over [0, t]; vectorized over ``t``
        (for a ``(rows, n)`` integrand, a ``(rows, n)`` block of times,
        one row per integrand row)."""
        times = np.asarray(t, dtype=np.float64)
        if np.any(times < 0.0):
            raise SimulationError("cannot integrate to negative time")
        return self._sample(times)

    def between(self, t0: float, t1: float) -> float:
        """Integral over [t0, t1]."""
        if t1 < t0:
            raise SimulationError(f"integration window inverted: [{t0}, {t1}]")
        ends = self.value(np.array([t0, t1]))
        return float(ends[1] - ends[0])
