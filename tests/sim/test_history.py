"""Device histories as checkpointed slices: reads anywhere, in any
order, equal one whole read bit for bit, in bounded memory."""

import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.power import ThermalModel
from repro.errors import SimulationError
from repro.sim import integrate
from repro.sim.integrate import CumulativeIntegral


class _KnotSignal:
    """Piecewise-linear signal through random knots on [0, 10] s, with
    a level that a test can move (and a version that says so)."""

    def __init__(self, values):
        self.knots = np.linspace(0.0, 10.0, len(values))
        self.values = np.asarray(values, dtype=np.float64)
        self.version = 0

    def value(self, t):
        return np.interp(t, self.knots, self.values)


class _Pair:
    """Two rows on one grid: the knot signal and a scaled copy."""

    def __init__(self, inner):
        self.inner = inner

    def value(self, t):
        row = self.inner.value(t)
        return np.stack([row, 0.5 * row + 3.0])


def _whole(history, probe, t_max, rows=False):
    """``np.interp`` of ``probe`` over the whole dense grid."""
    times, values = history.grid(t_max)
    if rows:
        return np.stack([np.interp(p, times, v)
                         for p, v in zip(probe, values)])
    return np.interp(probe, times, values)


def _histories(signal):
    return (CumulativeIntegral(signal, dt=0.01,
                               stamp=lambda: signal.version),
            ThermalModel(signal, dt=0.01, stamp=lambda: signal.version))


reads = st.lists(st.lists(st.floats(0.0, 9.5), min_size=1, max_size=8),
                 min_size=1, max_size=6)


@given(values=st.lists(st.floats(0.0, 500.0), min_size=2, max_size=10),
       slice_points=st.integers(3, 60), dense=st.integers(1, 3),
       batches=reads)
@settings(max_examples=60, deadline=None)
def test_unsorted_reads_equal_one_whole_read(values, slice_points, dense,
                                             batches):
    """Batches of unsorted times, read in any order, equal ``np.interp``
    over the whole grid of a fresh history, bit for bit, with slices
    small enough that early ones are dropped and recomputed from their
    checkpoints."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrate, "_SLICE_POINTS", slice_points)
        patch.setattr(integrate, "_DENSE_SLICES", dense)
        signal = _KnotSignal(values)
        integral, thermal = _histories(signal)
        stacked = CumulativeIntegral(_Pair(signal), dt=0.01)
        for batch in batches + batches[::-1]:
            probe = np.array(batch)
            got = (integral.value(probe), thermal.temperature(probe),
                   stacked.value(np.stack([probe, probe[::-1]])))
            fresh_integral, fresh_thermal = _histories(signal)
            fresh_stacked = CumulativeIntegral(_Pair(signal), dt=0.01)
            t_max = float(probe.max())
            np.testing.assert_array_equal(
                got[0], _whole(fresh_integral, probe, t_max))
            np.testing.assert_array_equal(
                got[1], _whole(fresh_thermal, probe, t_max))
            np.testing.assert_array_equal(
                got[2], _whole(fresh_stacked, np.stack([probe, probe[::-1]]),
                               t_max, rows=True))


def test_dropped_slices_are_recomputed_from_checkpoints(monkeypatch):
    monkeypatch.setattr(integrate, "_SLICE_POINTS", 16)
    monkeypatch.setattr(integrate, "_DENSE_SLICES", 1)
    signal = _KnotSignal([3.0, 250.0, 0.0, 90.0, 41.0])
    integral = CumulativeIntegral(signal, dt=0.01)
    far = integral.value(9.0)
    assert len(integral._checkpoints) == 9.0 / 0.01 // 16 + 1
    assert len(integral._dense) == 1
    near = integral.value(np.array([0.05, 0.33, 4.2]))
    assert len(integral._dense) == 1
    whole_t, whole = CumulativeIntegral(signal, dt=0.01).grid(9.0)
    np.testing.assert_array_equal(near, np.interp([0.05, 0.33, 4.2],
                                                  whole_t, whole))
    assert integral.value(9.0) == far


@pytest.mark.parametrize("make", [
    lambda s: CumulativeIntegral(s, dt=0.01, stamp=lambda: s.version),
    lambda s: ThermalModel(s, dt=0.01, stamp=lambda: s.version),
])
def test_a_stamp_change_discards_every_checkpoint(monkeypatch, make):
    monkeypatch.setattr(integrate, "_SLICE_POINTS", 16)
    signal = _KnotSignal([3.0, 250.0, 0.0, 90.0])
    # Built together, so both start from the same power-on state.
    history, reference = make(signal), make(signal)
    read = (history.value if isinstance(history, CumulativeIntegral)
            else history.temperature)
    probe = np.array([0.4, 7.7, 2.25])
    read(9.0)
    signal.values = signal.values[::-1].copy()
    signal.version += 1
    got = read(probe)
    assert len(history._checkpoints) == 7.7 / 0.01 // 16 + 1
    np.testing.assert_array_equal(got, _whole(reference, probe, 7.7))


def test_nothing_is_evaluated_past_the_latest_read():
    integral = CumulativeIntegral(_KnotSignal([1.0, 2.0]), dt=1e-3)
    integral.value(np.array([0.25, 11.767, 3.0]))
    assert integral._n == 11767
    thermal = ThermalModel(_KnotSignal([1.0, 2.0]), dt=0.05)
    thermal.temperature(4.01)
    assert thermal._n == 81


def test_a_stacked_history_reads_one_row_of_times_per_row():
    stacked = CumulativeIntegral(_Pair(_KnotSignal([1.0, 2.0])))
    with pytest.raises(SimulationError, match="one row of times"):
        stacked.value(np.array([0.5, 1.0]))


#: Reads an idle Sandy Bridge PKG counter and a thermal node 40,000 s
#: out (about 3.4 idle wrap periods) and prints the peak-RSS growth.
_LONG_READ = textwrap.dedent("""
    import json, resource
    import numpy as np
    from repro.devices.power import ThermalModel
    from repro.rapl.domains import RaplDomain
    from repro.rapl.package import SANDY_BRIDGE, CpuPackage
    from repro.sim.signals import ConstantSignal

    def peak_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    package = CpuPackage(SANDY_BRIDGE)
    thermal = ThermalModel(ConstantSignal(40.0))
    before = peak_mb()
    raw = package.energy_raw(RaplDomain.PKG, 40_000.0)
    wraps = package.wraps_between(RaplDomain.PKG, 0.0, 40_000.0)
    temp = float(thermal.temperature(40_000.0))
    print(json.dumps({"growth_mb": peak_mb() - before, "raw": raw,
                      "wraps": wraps, "temp": temp}))
""")


@pytest.mark.tier1
def test_a_long_read_stays_in_bounded_memory():
    """40 M grid points of energy history and 800 k of temperature
    cost a few dense slices, not the whole grid (~1.9 GB)."""
    done = subprocess.run([sys.executable, "-c", _LONG_READ],
                          capture_output=True, text=True, check=True,
                          timeout=300)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["growth_mb"] < 150.0, result
    assert result["wraps"] == 3
    assert 0 <= result["raw"] < 1 << 32
    assert result["temp"] == pytest.approx(25.0 + 40.0 * 0.35)
