"""Sensor sources: columnar views of the device simulators.

A :class:`SensorSource` is the device-facing quarter of a mechanism: it
knows how to sample its wrapped simulator over a whole time grid in one
vectorized pass, per named field.  Everything above it — latency,
quantization, freshness, capability — belongs to the other three parts
of the mechanism, so a source stays a pure data producer.

Scalar reads do not exist at this layer: the generic
:class:`~repro.mech.mechanism.Mechanism` derives ``read_at`` from a
one-element grid, which is what guarantees scalar/block parity once,
here, instead of per backend.  Stateful sources (the RAPL counter
differencers) must therefore be *chunking-invariant*: collecting a grid
in pieces, in time order, yields bit-identical columns to collecting it
whole — the read-block parity property suite pins this down.
"""

from __future__ import annotations

import abc

import numpy as np


def empty_block(fields: list[str] | tuple[str, ...], n: int) -> np.ndarray:
    """A zeroed structured block with one f8 column per field — the one
    shared home for block construction (sources, backends, sessions)."""
    return np.zeros(n, dtype=[(name, "f8") for name in fields])


def consecutive_deltas(
    times: np.ndarray, raws: np.ndarray, prev: tuple[float, int] | None,
    modulus: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, tuple[float, int]]:
    """Vectorized consecutive-read differencing for counter sources.

    Matches reading the rows one at a time, bit for bit: each row
    differences against the preceding row (or the carried-over ``prev``
    state for row 0), and negative deltas get the single-wrap
    correction.  Returns ``(delta, dt, fresh, wrap_count, new_prev)``
    where ``fresh`` marks rows without a usable predecessor (reported as
    0.0 W; their ``dt`` is pinned to 1.0 so callers can divide
    unconditionally).
    """
    n = times.shape[0]
    prev_t = np.empty(n, dtype=np.float64)
    prev_raw = np.empty(n, dtype=np.int64)
    prev_t[1:] = times[:-1]
    prev_raw[1:] = raws[:-1]
    if prev is None:
        prev_t[0] = np.inf  # forces the "no predecessor" row
        prev_raw[0] = 0
    else:
        prev_t[0], prev_raw[0] = prev
    fresh = times <= prev_t
    delta = raws - prev_raw
    wrapped = (delta < 0) & ~fresh
    delta = delta + wrapped * modulus
    dt = times - prev_t
    dt[fresh] = 1.0
    return (delta, dt, fresh, int(np.count_nonzero(wrapped)),
            (float(times[-1]), int(raws[-1])))


class SensorSource(abc.ABC):
    """One device's sensors, sampled columnarly over a time grid."""

    @abc.abstractmethod
    def fields(self) -> tuple[str, ...]:
        """Names of the data points one collection produces, in order."""

    @abc.abstractmethod
    def collect(self, times: np.ndarray) -> dict[str, np.ndarray]:
        """Field name -> column of samples at each time in ``times``.

        Passive (no clock movement, no process charge); the session owns
        time.  Reads must arrive in time order across calls for stateful
        sources.
        """

    def cache_plan(self):
        """This source's :class:`~repro.mech.cache.CachePlan`, or None.

        A plan declares that every field is a pure function of the poll
        time (held registers keyed by hardware window, continuous values
        keyed exactly), which is what lets the channel cache serve
        refresh-window hits byte-identically.  The default is None —
        uncacheable — which is the only safe answer for stateful sources
        like the counter differencers below.
        """
        return None


class CounterSource(SensorSource):
    """Stateful counter-differencing source: fields are power columns
    derived from deltas of monotonically-updating hardware counters.

    Subclasses declare ``(field, counter_key)`` pairs and implement
    :meth:`raw_block` (counter contents over a grid, int64) plus
    :meth:`to_watts` (delta/dt -> power).  Wrap corrections use the
    standard single-wrap rule; :meth:`record_wraps` is a hook for
    mechanism-specific wrap metrics.
    """

    def __init__(self, counters: tuple[tuple[str, object], ...], modulus: int):
        self._counters = counters
        self._modulus = modulus
        self._last: dict[object, tuple[float, int]] = {}

    def fields(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._counters)

    @abc.abstractmethod
    def raw_block(self, key, times: np.ndarray) -> np.ndarray:
        """Counter contents at each time, as an int64 array."""

    @abc.abstractmethod
    def to_watts(self, delta: np.ndarray, dt: np.ndarray) -> np.ndarray:
        """Convert counter deltas over ``dt`` seconds to watts."""

    def record_wraps(self, count: int) -> None:
        """Observability hook: ``count`` single-wrap corrections applied."""

    def collect(self, times: np.ndarray) -> dict[str, np.ndarray]:
        columns: dict[str, np.ndarray] = {}
        for name, key in self._counters:
            raws = self.raw_block(key, times)
            delta, dt, fresh, wraps, self._last[key] = consecutive_deltas(
                times, raws, self._last.get(key), self._modulus
            )
            if wraps:
                self.record_wraps(wraps)
            power = self.to_watts(delta, dt)
            power[fresh] = 0.0
            columns[name] = power
        return columns
