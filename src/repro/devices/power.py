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

from typing import Callable, Hashable, Mapping

import numpy as np

from repro.devices.load import LoadBoard
from repro.errors import ConfigError
from repro.sim.integrate import StampedHistory
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

    def power(self, t: np.ndarray | float,
              utilization: Mapping[str, np.ndarray] | None = None) -> np.ndarray:
        """True device power at time(s) ``t``.  ``utilization`` may give
        each component's utilization at ``t`` already evaluated."""
        times = np.asarray(t, dtype=np.float64)
        total = np.full_like(times, self.idle_w)
        for component, watts in self.dynamic_w.items():
            util = (self.board.utilization(component, times)
                    if utilization is None else utilization[component])
            total = total + watts * util
        return total

    def component_power(self, component: str, t: np.ndarray | float,
                        idle_share: float = 0.0,
                        utilization: np.ndarray | None = None) -> np.ndarray:
        """Power attributable to one component: an optional share of the
        idle floor plus its dynamic contribution (from ``utilization``
        at ``t`` when it is given)."""
        if utilization is None:
            utilization = self.board.utilization(
                component, np.asarray(t, dtype=np.float64))
        watts = self.dynamic_w.get(component, 0.0)
        return idle_share * self.idle_w + watts * utilization

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
        #: Bumped on every limit write; cached histories key on it.
        self.version = 0

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
        self.version += 1

    def current_limit(self, t: float) -> float:
        idx = int(np.searchsorted(self._times, t, side="right")) - 1
        return self._limits[max(idx, 0)]

    def value(self, t: np.ndarray | float) -> np.ndarray:
        times = np.asarray(t, dtype=np.float64)
        return self.clamp(times, self.inner.value(times))

    def clamp(self, times: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``values`` of the inner signal at ``times``, under the cap."""
        if len(self._limits) == 1:
            return np.minimum(values, self._limits[0])
        idx = np.clip(np.searchsorted(self._times, times, side="right") - 1, 0, None)
        limits = np.asarray(self._limits, dtype=np.float64)[idx]
        return np.minimum(values, limits)


def history_stamp(board: LoadBoard,
                  cap: LimitedSignal) -> Callable[[], tuple[int, int]]:
    """A stamp for a device's cached histories: the versions of its load
    board and of its power cap.  It holds no reference to the device, so
    a device whose histories keep it is still freed by reference
    counting."""
    return lambda: (board.version, cap.version)


class ThermalModel(StampedHistory):
    """First-order RC thermal node driven by a power signal.

    dT/dt = (P(t) - (T - T_ambient)/R) / C, solved on a ``dt`` grid like
    the energy integrals (see :class:`~repro.sim.integrate.StampedHistory`:
    evaluated as far as it is read, checkpointed per slice).
    ``temperature(t)`` is exact for the grid resolution and
    deterministic.  With a ``stamp`` callable the history is rebuilt,
    from the same power-on temperature, whenever the stamp changes.
    """

    def __init__(self, power: Signal, ambient_c: float = 25.0,
                 r_c_per_w: float = 0.35, c_j_per_c: float = 180.0,
                 dt: float = 0.05, stamp: Callable[[], Hashable] | None = None):
        if r_c_per_w <= 0.0 or c_j_per_c <= 0.0:
            raise ConfigError("thermal R and C must be positive")
        self.power = power
        self.ambient_c = float(ambient_c)
        self.r = float(r_c_per_w)
        self.c = float(c_j_per_c)
        # Power-on initial condition: the steady state of the power at
        # construction, before anything is scheduled.
        self._origin = (
            ambient_c + float(self.power.value(np.asarray(0.0))) * self.r)
        super().__init__(dt, stamp)

    def _evaluate(self, k0: int, k1: int, start,
                  into: Callable[[tuple], np.ndarray]) -> None:
        # Index-based grid points (dt * k), like CumulativeIntegral: the
        # temperature history is bit-identical regardless of how reads
        # were chunked (one tick at a time vs one long block).
        times = self.dt * np.arange(k0 + 1, k1 + 1, dtype=np.float64)
        # The recurrence is sequential, so it runs on Python floats (the
        # same IEEE arithmetic as numpy scalars, without their overhead).
        ambient, r = self.ambient_c, self.r
        temp = float(start)
        # Exact exponential step for piecewise-constant power.
        decay = float(np.exp(-self.dt / (self.r * self.c)))
        temps = []
        for power in self.power.value(times).tolist():
            steady = ambient + power * r
            temp = steady + (temp - steady) * decay
            temps.append(temp)
        into(())[...] = temps

    def temperature(self, t: np.ndarray | float) -> np.ndarray:
        """Temperature in Celsius at time(s) ``t``."""
        return self._sample(np.asarray(t, dtype=np.float64))

    def signal(self) -> "TemperatureSignal":
        return TemperatureSignal(self)


class TemperatureSignal:
    """Signal adapter over a :class:`ThermalModel`."""

    def __init__(self, model: ThermalModel):
        self.model = model

    def value(self, t: np.ndarray | float) -> np.ndarray:
        return self.model.temperature(t)
