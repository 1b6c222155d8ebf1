"""The EMON environmental-monitoring API.

Properties reproduced from §II-A:

* node-card granularity — one EMON reading covers 32 nodes; per-node
  data is "not possible to overcome in software";
* readings expose **voltage and current** per domain (power is computed
  by the consumer, as MonEQ does);
* data comes "from the oldest generation of power data" — the value
  returned is one full generation behind the hardware sample;
* "the underlying power measurement infrastructure does not measure all
  domains at the exact same time" — per-domain sample phases;
* ~1.10 ms per collection (~0.19 % overhead at MonEQ's cadence).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bgq.domains import BGQ_DOMAINS, BgqDomain
from repro.bgq.topology import NodeBoard
from repro.errors import SensorError
from repro.host.process import Process
from repro.obs.instruments import collector
from repro.sim.clock import VirtualClock
from repro.sim.noise import GaussianNoise
from repro.sim.rng import RngRegistry
from repro.sim.sensor import SampledSensor

_OBS = collector("emon")

#: Per-collection latency of an EMON query (paper: "about 1.10 ms").
EMON_QUERY_LATENCY_S = 1.10e-3

#: Hardware sampling generation period.  MonEQ's fastest useful polling
#: interval on BG/Q is 560 ms = two generations of this.
GENERATION_PERIOD_S = 0.280


@dataclass(frozen=True)
class EmonReading:
    """One domain's (voltage, current) pair plus its sample timestamp."""

    domain: BgqDomain
    voltage_v: float
    current_a: float
    sample_time: float

    @property
    def power_w(self) -> float:
        return self.voltage_v * self.current_a


class EmonInterface:
    """EMON access to one node board's domain sensors."""

    def __init__(self, node_board: NodeBoard, clock: VirtualClock,
                 rng: RngRegistry | None = None):
        self.node_board = node_board
        self.clock = clock
        registry = rng if rng is not None else node_board.rng
        self._voltage_sensors: dict[BgqDomain, SampledSensor] = {}
        self._current_sensors: dict[BgqDomain, SampledSensor] = {}
        for spec in BGQ_DOMAINS:
            self._voltage_sensors[spec.domain] = SampledSensor(
                truth=_VoltageSignal(node_board, spec.domain),
                update_interval=GENERATION_PERIOD_S,
                noise=GaussianNoise(0.002),
                seed=registry.seed(f"emon.{spec.domain.value}.v"),
                phase=spec.sample_phase,
            )
            self._current_sensors[spec.domain] = SampledSensor(
                truth=_CurrentSignal(node_board, spec.domain),
                update_interval=GENERATION_PERIOD_S,
                noise=GaussianNoise(0.5),
                seed=registry.seed(f"emon.{spec.domain.value}.i"),
                phase=spec.sample_phase,
            )

    def collect(self, process: Process | None = None) -> list[EmonReading]:
        """One EMON collection: all 7 domains, oldest-generation data.

        Charges 1.10 ms to the clock (and ``process``), then returns the
        generation *before* the one currently visible to the hardware.
        """
        self.clock.advance(EMON_QUERY_LATENCY_S)
        if process is not None and process.alive:
            process.charge(EMON_QUERY_LATENCY_S)
        _OBS.record_query(EMON_QUERY_LATENCY_S)
        return self.collect_at(self.clock.now)

    def collect_at(self, t: float) -> list[EmonReading]:
        """Passive collection at time ``t`` — no clock movement.

        MonEQ uses this path: agents on different node boards collect in
        parallel, so the profiling session, not the device call, decides
        how wall-clock advances (it charges the documented latency to
        each agent's process and steps the shared clock once per tick).
        """
        return [
            EmonReading(domain=domain, voltage_v=float(volts[0]),
                        current_a=float(amps[0]), sample_time=float(stale_t[0]))
            for domain, stale_t, volts, amps in self._sample(np.array([t]))
        ]

    def collect_block(self, times: np.ndarray) -> dict[BgqDomain, np.ndarray]:
        """Per-domain power (V x I) columns at each time in ``times``,
        from the same sampler as :meth:`collect_at`."""
        return {domain: volts * amps
                for domain, _, volts, amps in self._sample(times)}

    def _sample(self, times: np.ndarray):
        """Yield ``(domain, sample_time, voltage, current)`` arrays over
        ``times``, one per domain in :data:`BGQ_DOMAINS` order."""
        times = np.asarray(times, dtype=np.float64)
        for spec in BGQ_DOMAINS:
            v_sensor = self._voltage_sensors[spec.domain]
            # Oldest generation: one full period behind the current one.
            stale_t = np.maximum(
                v_sensor.last_update_time(times) - GENERATION_PERIOD_S, 0.0
            )
            yield (spec.domain, stale_t, v_sensor.read(stale_t),
                   self._current_sensors[spec.domain].read(stale_t))

    def collect_power_w(self, process: Process | None = None) -> dict[BgqDomain, float]:
        """Convenience: per-domain power (V x I) from one collection."""
        return {r.domain: r.power_w for r in self.collect(process)}

    @staticmethod
    def node_card_power(readings: list[EmonReading]) -> float:
        """Total node-card power from one collection (Figure 2's top line)."""
        if not readings:
            raise SensorError("empty EMON collection")
        return sum(r.power_w for r in readings)


class _VoltageSignal:
    """Live rail-voltage view of one domain."""

    def __init__(self, node_board: NodeBoard, domain: BgqDomain):
        self.node_board, self.domain = node_board, domain

    def value(self, t):
        return self.node_board.domain_voltage(self.domain, t)


class _CurrentSignal:
    """Live rail-current view of one domain."""

    def __init__(self, node_board: NodeBoard, domain: BgqDomain):
        self.node_board, self.domain = node_board, domain

    def value(self, t):
        return self.node_board.domain_current(self.domain, t)
