"""Power and thermal models over load boards.

:class:`ComponentPowerModel` maps utilization to watts with the standard
affine model (idle floor + per-component dynamic range).  It exposes
power as live signals so sensors, counters and power caps all observe
one consistent truth.

:class:`ThermalModel` is a first-order RC thermal node driven by the
power signal — sufficient for the steady temperature climb in the
paper's Figure 5.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.devices.load import LoadBoard
from repro.sim.integrate import CumulativeIntegral
from repro.sim.signals import Signal


class ComponentPowerModel:
    """Affine utilization-to-watts model for one device.

    Parameters
    ----------
    board:
        The device's load board.
    idle_w:
        Power drawn with every component idle.
    dynamic_w:
        Mapping component -> additional watts at utilization 1.0.
    """

    def __init__(self, board: LoadBoard, idle_w: float, dynamic_w: dict[str, float]):
        if idle_w < 0.0:
            raise ConfigError(f"idle power must be non-negative, got {idle_w}")
        for component, watts in dynamic_w.items():
            if watts < 0.0:
                raise ConfigError(f"dynamic watts for {component} must be >= 0, got {watts}")
        self.board = board
        self.idle_w = float(idle_w)
        self.dynamic_w = dict(dynamic_w)

    @property
    def peak_w(self) -> float:
        """Power with every component at utilization 1.0."""
        return self.idle_w + sum(self.dynamic_w.values())

    def power(self, t: np.ndarray | float) -> np.ndarray:
        """True device power at time(s) ``t``."""
        times = np.asarray(t, dtype=np.float64)
        total = np.full_like(times, self.idle_w)
        for component, watts in self.dynamic_w.items():
            total = total + watts * self.board.utilization(component, times)
        return total

    def component_power(self, component: str, t: np.ndarray | float,
                        idle_share: float = 0.0) -> np.ndarray:
        """Power attributable to one component: an optional share of the
        idle floor plus its dynamic contribution."""
        times = np.asarray(t, dtype=np.float64)
        watts = self.dynamic_w.get(component, 0.0)
        return idle_share * self.idle_w + watts * self.board.utilization(component, times)

    def signal(self) -> "PowerSignal":
        """Live signal view of total power."""
        return PowerSignal(self, None)

    def component_signal(self, component: str, idle_share: float = 0.0) -> "PowerSignal":
        """Live signal view of one component's power."""
        return PowerSignal(self, component, idle_share)


class PowerSignal:
    """Signal adapter over a :class:`ComponentPowerModel`."""

    def __init__(self, model: ComponentPowerModel, component: str | None,
                 idle_share: float = 0.0):
        self.model = model
        self.component = component
        self.idle_share = idle_share

    def value(self, t: np.ndarray | float) -> np.ndarray:
        if self.component is None:
            return self.model.power(t)
        return self.model.component_power(self.component, t, self.idle_share)


class LimitedSignal:
    """A signal clamped by a *time-varying* cap.

    Models RAPL power capping: writes to the power-limit MSR take effect
    from the write time forward; earlier history is unaffected.
    """

    def __init__(self, inner: Signal, default_limit: float = np.inf):
        self.inner = inner
        self._times: list[float] = [0.0]
        self._limits: list[float] = [float(default_limit)]

    def set_limit(self, t: float, limit: float) -> None:
        """Apply ``limit`` from time ``t`` forward."""
        if limit <= 0.0:
            raise ConfigError(f"power limit must be positive, got {limit}")
        if t < self._times[-1]:
            raise ConfigError(
                f"limit changes must be chronological: {t} < {self._times[-1]}"
            )
        self._times.append(float(t))
        self._limits.append(float(limit))

    def current_limit(self, t: float) -> float:
        idx = int(np.searchsorted(self._times, t, side="right")) - 1
        return self._limits[max(idx, 0)]

    def value(self, t: np.ndarray | float) -> np.ndarray:
        times = np.asarray(t, dtype=np.float64)
        idx = np.clip(np.searchsorted(self._times, times, side="right") - 1, 0, None)
        limits = np.asarray(self._limits, dtype=np.float64)[idx]
        return np.minimum(self.inner.value(times), limits)


class ThermalModel:
    """First-order RC thermal node driven by a power signal.

    dT/dt = (P(t) - (T - T_ambient)/R) / C, solved on a cached grid like
    the energy integrals.  ``temperature(t)`` is exact for the cached
    grid resolution and deterministic.
    """

    def __init__(self, power: Signal, ambient_c: float = 25.0,
                 r_c_per_w: float = 0.35, c_j_per_c: float = 180.0,
                 dt: float = 0.05):
        if r_c_per_w <= 0.0 or c_j_per_c <= 0.0:
            raise ConfigError("thermal R and C must be positive")
        self.power = power
        self.ambient_c = float(ambient_c)
        self.r = float(r_c_per_w)
        self.c = float(c_j_per_c)
        self.dt = float(dt)
        self._grid_n = 0
        self._times = np.zeros(1)
        self._temps = np.array([ambient_c + self._steady_delta(0.0)])

    def _steady_delta(self, t: float) -> float:
        """Steady-state rise above ambient for the power at time t —
        the power-on initial condition."""
        return float(self.power.value(np.asarray(0.0))) * self.r if t == 0.0 else 0.0

    def _extend(self, t_end: float) -> None:
        target = max(t_end * 1.1, self._times[-1] + 16 * self.dt)
        n_new = int(np.ceil((target - self._times[-1]) / self.dt))
        # Index-based grid points (dt * k), like CumulativeIntegral: the
        # cached temperature history is bit-identical regardless of how
        # reads were chunked (one tick at a time vs one long block).
        new_times = self.dt * np.arange(
            self._grid_n + 1, self._grid_n + n_new + 1
        ).astype(np.float64)
        powers = self.power.value(new_times)
        temps = np.empty(n_new)
        temp = self._temps[-1]
        # Exact exponential step for piecewise-constant power.
        decay = np.exp(-self.dt / (self.r * self.c))
        for i in range(n_new):
            steady = self.ambient_c + powers[i] * self.r
            temp = steady + (temp - steady) * decay
            temps[i] = temp
        self._times = np.concatenate((self._times, new_times))
        self._temps = np.concatenate((self._temps, temps))
        self._grid_n += n_new

    def temperature(self, t: np.ndarray | float) -> np.ndarray:
        """Temperature in Celsius at time(s) ``t``."""
        times = np.asarray(t, dtype=np.float64)
        t_max = float(np.max(times, initial=0.0))
        if t_max > self._times[-1]:
            self._extend(t_max)
        return np.interp(times, self._times, self._temps)

    def signal(self) -> "TemperatureSignal":
        return TemperatureSignal(self)


class TemperatureSignal:
    """Signal adapter over a :class:`ThermalModel`."""

    def __init__(self, model: ThermalModel):
        self.model = model

    def value(self, t: np.ndarray | float) -> np.ndarray:
        return self.model.temperature(t)


class BoardTrackingIntegral:
    """Cumulative integral that invalidates when the load board mutates.

    Energy counters wrap this so scheduling a new workload after a
    counter was already read does not leave stale cached energy history.
    """

    def __init__(self, signal: Signal, board: LoadBoard, dt: float = 1e-3):
        self.signal = signal
        self.board = board
        self.dt = dt
        self._version = board.version
        self._integral = CumulativeIntegral(signal, dt=dt)

    def _fresh(self) -> CumulativeIntegral:
        if self.board.version != self._version:
            self._integral = CumulativeIntegral(self.signal, dt=self.dt)
            self._version = self.board.version
        return self._integral

    def value(self, t: np.ndarray | float) -> np.ndarray:
        return self._fresh().value(t)

    def between(self, t0: float, t1: float) -> float:
        return self._fresh().between(t0, t1)
