"""Generic sensor models.

Two kinds of hardware sensor appear across the paper's four platforms:

* **Sample-and-hold gauges** — a register holding the most recent
  measurement of an instantaneous quantity (NVML power, updated ~60 ms;
  BG/Q domain voltage/current; Phi SMC temperatures).  Modeled by
  :class:`SampledSensor`: reads between hardware updates return the held
  value; each update is perturbed by the sensor's noise model.

* **Accumulating counters** — a fixed-width register counting quanta of an
  integral quantity (RAPL 32-bit energy status in 2^-16 J units).  Modeled
  by :class:`CounterSensor`, which wraps on overflow exactly as the paper
  warns ("registers can 'overfill' if they are not read frequently
  enough").
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SensorError
from repro.sim.integrate import CumulativeIntegral
from repro.sim.noise import NoiseModel, NoNoise
from repro.sim.signals import Signal


class SampledSensor:
    """Sample-and-hold gauge over a continuous truth signal.

    Parameters
    ----------
    truth:
        The underlying continuous signal (e.g. board power in watts).
    update_interval:
        Hardware refresh period in seconds.  Reads between refreshes
        return the identical held value.
    noise:
        Per-update measurement perturbation.
    seed:
        Seed for the counter-based noise (derive via
        :meth:`repro.sim.rng.RngRegistry.seed`).
    quantum:
        Optional reporting resolution (e.g. 1 mW for NVML); values are
        floored to a multiple of it *after* noise.
    phase:
        Offset of the hardware update grid; lets two domains refresh at
        different instants ("does not measure all domains at the exact
        same time", paper §II-A).
    """

    def __init__(
        self,
        truth: Signal,
        update_interval: float,
        noise: NoiseModel | None = None,
        seed: int = 0,
        quantum: float = 0.0,
        phase: float = 0.0,
    ):
        if update_interval <= 0.0:
            raise SensorError(f"update interval must be positive, got {update_interval}")
        if quantum < 0.0:
            raise SensorError(f"quantum must be non-negative, got {quantum}")
        self.truth = truth
        self.update_interval = float(update_interval)
        self.noise = noise if noise is not None else NoNoise()
        self.seed = int(seed)
        self.quantum = float(quantum)
        self.phase = float(phase)

    def sample_index(self, t: np.ndarray | float) -> np.ndarray:
        """Index of the hardware update visible at time ``t``."""
        times = np.asarray(t, dtype=np.float64)
        if np.any(times < 0.0):
            raise SensorError("cannot read sensor before t=0")
        return np.floor((times - self.phase) / self.update_interval).astype(np.int64)

    def last_update_time(self, t: np.ndarray | float) -> np.ndarray:
        """Time of the most recent hardware update at or before ``t``."""
        return self.sample_index(t) * self.update_interval + self.phase

    def read(self, t: np.ndarray | float) -> np.ndarray:
        """Measured value at time(s) ``t``; vectorized, deterministic."""
        idx = self.sample_index(t)
        # Clamp the update instant into [0, t]: before the first hardware
        # refresh the register holds the power-on sample at t=0.
        update_t = np.maximum(idx * self.update_interval + self.phase, 0.0)
        measured = self.noise.apply(
            self.seed, np.maximum(idx, 0), self.truth.value(update_t)
        )
        if self.quantum > 0.0:
            measured = np.floor(measured / self.quantum) * self.quantum
        return measured

    def staleness(self, t: float) -> float:
        """Age of the reading returned at ``t``."""
        return float(t - min(max(self.last_update_time(t), 0.0), t))


class CounterSensor:
    """Fixed-width accumulating counter over the integral of a signal.

    ``raw(t)`` returns the register contents: ``floor(I(t_update)/unit)
    mod 2**width_bits`` where I is the cumulative integral of the truth
    signal and ``t_update`` snaps to the hardware update grid.
    """

    def __init__(
        self,
        truth: Signal,
        unit: float,
        width_bits: int = 32,
        update_interval: float = 1e-3,
        dt: float = 1e-3,
    ):
        if unit <= 0.0:
            raise SensorError(f"counter unit must be positive, got {unit}")
        if not 1 <= width_bits <= 64:
            raise SensorError(f"width_bits must be in [1, 64], got {width_bits}")
        if update_interval <= 0.0:
            raise SensorError(f"update interval must be positive, got {update_interval}")
        self.truth = truth
        self.unit = float(unit)
        self.width_bits = int(width_bits)
        self.modulus = 1 << width_bits
        self.update_interval = float(update_interval)
        self._integral = CumulativeIntegral(truth, dt=dt)

    @property
    def wrap_value(self) -> float:
        """Accumulated quantity (e.g. joules) at which the counter wraps."""
        return self.modulus * self.unit

    def wrap_period(self, mean_rate: float) -> float:
        """Seconds between wraps at a given mean rate (e.g. watts).

        The paper's ~60 s RAPL guidance is this figure for a desktop
        package: 2^32 x 2^-16 J / ~1 kW-scale power.
        """
        if mean_rate <= 0.0:
            return math.inf
        return self.wrap_value / mean_rate

    def accumulated(self, t: float) -> float:
        """True (unwrapped) accumulated quantity at ``t``."""
        return float(self._integral.value(t))

    def raw(self, t: np.ndarray | float) -> np.ndarray:
        """Register contents at time(s) ``t`` (integer array)."""
        times = np.asarray(t, dtype=np.float64)
        if np.any(times < 0.0):
            raise SensorError("cannot read counter before t=0")
        snapped = np.floor(times / self.update_interval) * self.update_interval
        # Tolerate grid-integration rounding just below a quantum boundary.
        quanta = np.floor(self._integral.value(snapped) / self.unit + 1e-9).astype(np.int64)
        return quanta % self.modulus

    def delta(self, t0: float, t1: float) -> float:
        """Decode the accumulated quantity between two reads, assuming at
        most one wrap — the correction every RAPL consumer applies.

        If more than one wrap actually occurred the result silently
        underestimates, which is precisely the erroneous-data failure the
        paper describes for >60 s sampling.
        """
        if t1 < t0:
            raise SensorError(f"reads out of order: {t0} > {t1}")
        r0, r1 = (int(x) for x in self.raw(np.array([t0, t1])))
        diff = r1 - r0
        if diff < 0:
            diff += self.modulus
        return diff * self.unit
