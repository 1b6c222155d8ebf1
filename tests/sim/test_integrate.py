"""Unit tests for cumulative integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import integrate
from repro.sim.integrate import CumulativeIntegral
from repro.sim.signals import ConstantSignal, RampSignal


def test_constant_signal_integral():
    ci = CumulativeIntegral(ConstantSignal(10.0), dt=0.01)
    assert ci.value(5.0) == pytest.approx(50.0, rel=1e-6)


def test_ramp_integral():
    # Integral of t over [0, 4] = 8.
    ci = CumulativeIntegral(RampSignal(0.0, 100.0, 0.0, 100.0), dt=0.01)
    assert ci.value(4.0) == pytest.approx(8.0, rel=1e-4)


def test_vectorized_monotone():
    ci = CumulativeIntegral(ConstantSignal(3.0), dt=0.1)
    t = np.linspace(0, 10, 53)
    v = ci.value(t)
    assert np.all(np.diff(v) >= 0)
    np.testing.assert_allclose(v, 3.0 * t, rtol=1e-9)


def test_between_window():
    ci = CumulativeIntegral(ConstantSignal(2.0), dt=0.01)
    assert ci.between(1.0, 3.0) == pytest.approx(4.0, rel=1e-6)


def test_between_inverted_rejected():
    ci = CumulativeIntegral(ConstantSignal(1.0))
    with pytest.raises(SimulationError):
        ci.between(2.0, 1.0)


def test_negative_time_rejected():
    ci = CumulativeIntegral(ConstantSignal(1.0))
    with pytest.raises(SimulationError):
        ci.value(-1.0)


def test_bad_dt_rejected():
    with pytest.raises(SimulationError):
        CumulativeIntegral(ConstantSignal(1.0), dt=0.0)


def test_grid_extension_is_consistent():
    """Querying far, then near, then far again returns identical values
    (the cache only grows, never recomputes)."""
    ci = CumulativeIntegral(ConstantSignal(7.0), dt=0.05)
    far1 = ci.value(100.0)
    near = ci.value(1.0)
    far2 = ci.value(100.0)
    assert far1 == far2
    assert near == pytest.approx(7.0, rel=1e-6)


def test_zero_time_is_zero():
    ci = CumulativeIntegral(ConstantSignal(123.0))
    assert ci.value(0.0) == 0.0


class _KnotSignal:
    """Piecewise-linear signal through random knots on [0, 10] s."""

    def __init__(self, values):
        self.knots = np.linspace(0.0, 10.0, len(values))
        self.values = np.asarray(values, dtype=np.float64)

    def value(self, t):
        return np.interp(t, self.knots, self.values)


@given(values=st.lists(st.floats(0.0, 500.0), min_size=2, max_size=12),
       dt=st.sampled_from([1e-3, 0.01, 0.05]),
       splits=st.lists(st.floats(0.0, 9.0), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_chunked_reads_leave_the_whole_read_history(values, dt, splits):
    """Reads in several chunks leave the grid one whole read builds, bit
    for bit: every value is one sequential sum from t=0."""
    chunked = CumulativeIntegral(_KnotSignal(values), dt=dt)
    for t in sorted(splits):
        chunked.value(t)
    times_c, cum_c = chunked.grid(9.0)
    whole = CumulativeIntegral(_KnotSignal(values), dt=dt)
    times_w, cum_w = whole.grid(9.0)
    n = min(times_c.size, times_w.size)
    assert n > 9.0 / dt
    np.testing.assert_array_equal(times_c[:n], times_w[:n])
    np.testing.assert_array_equal(cum_c[:n], cum_w[:n])


def test_ramp_read_in_four_chunks_equals_one_read():
    ramp = RampSignal(0.0, 100.0, 0.0, 9.0)
    chunked = CumulativeIntegral(ramp)
    for t in (0.4, 1.3, 3.7, 9.0):
        chunked.value(t)
    probe = np.linspace(0.0, 9.0, 9001)
    np.testing.assert_array_equal(chunked.value(probe),
                                  CumulativeIntegral(ramp).value(probe))


def test_stacked_signal_rows_integrate_like_single_signals():
    """A (rows, n) signal integrates each row exactly as that row alone."""
    rows = [_KnotSignal([1.0, 40.0, 3.0]), _KnotSignal([7.0, 0.5, 90.0, 2.0])]

    class Stack:
        def value(self, t):
            return np.stack([row.value(t) for row in rows])

    stacked = CumulativeIntegral(Stack())
    for t in (0.3, 2.0, 6.5):
        stacked.grid(t)
    times, cumulative = stacked.grid(6.5)
    assert cumulative.shape == (2, times.size)
    for row, signal in enumerate(rows):
        alone = CumulativeIntegral(signal)
        np.testing.assert_array_equal(alone.value(times), cumulative[row])


def test_stamp_change_discards_history():
    level = {"w": 2.0, "version": 0}

    class Live:
        def value(self, t):
            return np.full(np.shape(t), level["w"])

    ci = CumulativeIntegral(Live(), dt=0.01, stamp=lambda: level["version"])
    assert ci.value(5.0) == pytest.approx(10.0)
    level["w"] = 3.0
    assert ci.value(5.0) == pytest.approx(10.0)  # same stamp: cached
    level["version"] = 1
    assert ci.value(5.0) == pytest.approx(15.0)


def test_evaluation_slices_leave_the_grid_unchanged(monkeypatch):
    """A long extension evaluates its signal a slice at a time; the slice
    size is invisible in the grid."""
    signal = _KnotSignal([3.0, 250.0, 0.0, 90.0, 41.0])
    whole = CumulativeIntegral(signal).grid(9.0)
    monkeypatch.setattr(integrate, "_SLICE_POINTS", 97)
    sliced = CumulativeIntegral(signal)
    sliced.value(2.0)
    for got, want in zip(sliced.grid(9.0), whole):
        np.testing.assert_array_equal(got, want)
