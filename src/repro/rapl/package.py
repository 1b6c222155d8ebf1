"""CPU package device with RAPL circuitry.

The package owns the true per-domain power signals and the 32-bit
energy-status counters behind the MSRs.  Access mechanisms (the msr
driver, perf_event) sit on top and only add latency/permission
semantics; both read the same counters, so cross-mechanism agreement is
exact — matching the paper's observation that the Xeon Phi daemon and
RAPL agree because "the implementation on both is essentially the same".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.load import LoadBoard
from repro.devices.power import BoardTrackingIntegral, ComponentPowerModel, LimitedSignal
from repro.errors import DriverError, SensorError
from repro.obs.instruments import RAPL_WRAPAROUNDS
from repro.rapl.domains import RaplDomain
from repro.rapl.msr import (
    ENERGY_STATUS_MSR,
    MSR_PKG_POWER_INFO,
    MSR_RAPL_POWER_UNIT,
    POWER_LIMIT_MSR,
    PowerLimit,
    RaplUnits,
    decode_power_limit,
    encode_power_limit,
    encode_units,
)
from repro.sim.rng import RngRegistry
from repro.workloads.base import Component


@dataclass(frozen=True)
class CpuModel:
    """Static parameters of a CPU package model."""

    name: str
    idle_w: float          # package power with cores/uncore idle
    cores_w: float         # dynamic range of the core plane (PP0)
    uncore_w: float        # dynamic range of the non-PP1 uncore
    pp1_w: float           # dynamic range of PP1 (integrated GPU; 0 on servers)
    dram_idle_w: float     # DIMM background power
    dram_w: float          # DIMM dynamic range
    tdp_w: float
    base_clock_hz: float = 3.0e9
    #: Counter update cadence; the SDM documents ~1 ms.
    counter_update_s: float = 1e-3
    #: Documented update-time jitter, in cycles (paper: within +/-50k).
    update_jitter_cycles: float = 50_000.0


#: Desktop Sandy Bridge — the Figure 3 testbed (idle shelf a few watts,
#: Gaussian-elimination load ~45-50 W).
SANDY_BRIDGE = CpuModel(
    name="sandy-bridge", idle_w=5.5, cores_w=38.0, uncore_w=6.0, pp1_w=12.0,
    dram_idle_w=1.5, dram_w=6.0, tdp_w=95.0,
)

#: Server Sandy Bridge-EP (Stampede host sockets); PP1 absent.
SANDY_BRIDGE_EP = CpuModel(
    name="sandy-bridge-ep", idle_w=18.0, cores_w=80.0, uncore_w=14.0, pp1_w=0.0,
    dram_idle_w=4.0, dram_w=14.0, tdp_w=115.0,
)


class CpuPackage:
    """One socket with RAPL counters.

    Parameters
    ----------
    model:
        Static electrical parameters.
    rng:
        Per-device RNG namespace (derives counter-jitter seeds).
    socket:
        Socket index on the node.
    logical_cpus:
        Number of logical CPUs this socket contributes (each gets an
        ``/dev/cpu/<n>/msr`` node; all alias the same package counters).
    """

    #: Per-query latency of a direct MSR read (paper: ~0.03 ms).
    MSR_READ_LATENCY_S = 0.03e-3

    def __init__(self, model: CpuModel = SANDY_BRIDGE,
                 rng: RngRegistry | None = None, socket: int = 0,
                 logical_cpus: int = 8):
        self.model = model
        self.rng = rng if rng is not None else RngRegistry()
        self.socket = socket
        self.logical_cpus = logical_cpus
        self.board = LoadBoard()
        self.units = RaplUnits()
        self._power_model = ComponentPowerModel(
            self.board,
            idle_w=model.idle_w,
            dynamic_w={
                Component.CPU_CORES: model.cores_w,
                Component.CPU_UNCORE: model.uncore_w,
            },
        )
        # Package truth, clampable by the PKG power limit.
        self.pkg_signal = LimitedSignal(self._power_model.signal())
        self._domain_signals = {
            RaplDomain.PKG: self.pkg_signal,
            RaplDomain.PP0: self._power_model.component_signal(
                Component.CPU_CORES, idle_share=0.35
            ),
            RaplDomain.PP1: _Pp1Signal(self.board, model.pp1_w),
            RaplDomain.DRAM: _DramSignal(self.board, model.dram_idle_w, model.dram_w),
        }
        jitter_s = model.update_jitter_cycles / model.base_clock_hz
        self._counters = {
            domain: _JitteredCounter(
                signal=self._domain_signals[domain],
                board=self.board,
                units=self.units,
                update_interval=model.counter_update_s,
                jitter_s=jitter_s,
                seed=self.rng.seed(f"rapl.{model.name}.{socket}.{domain.value}"),
                domain=domain.value,
            )
            for domain in RaplDomain
        }
        # Power-limit register state (limit #1 per domain; only PKG has
        # electrical effect).
        self._limits: dict[RaplDomain, int] = {
            domain: encode_power_limit(model.tdp_w, False, 0.01, self.units)
            for domain in RaplDomain
        }

    # -- truth access (used by tests and figure generators) ---------------

    def true_power(self, domain: RaplDomain, t: np.ndarray | float) -> np.ndarray:
        """Unquantized domain power at time(s) ``t``."""
        return self._domain_signals[domain].value(t)

    # -- counter access -----------------------------------------------------

    def energy_raw(self, domain: RaplDomain, t: float) -> int:
        """32-bit energy-status counter contents at virtual time ``t``."""
        return int(self.energy_raw_block(domain, np.array([t]))[0])

    def energy_raw_block(self, domain: RaplDomain, times: np.ndarray) -> np.ndarray:
        """Counter contents at each time in ``times`` as an int64 array;
        :meth:`energy_raw` is the one-element case."""
        return self._counters[domain].raw_block(times)

    def energy_joules_between(self, domain: RaplDomain, t0: float, t1: float) -> float:
        """Single-wrap-corrected energy between two reads (what every
        RAPL consumer computes); wrong if more than one wrap elapsed."""
        return self._counters[domain].delta(t0, t1)

    def wrap_period_at(self, mean_power_w: float) -> float:
        """Seconds until counter wrap at a mean power — the origin of the
        paper's ~60 s maximum sampling interval."""
        return self._counters[RaplDomain.PKG].wrap_period(mean_power_w)

    def wraps_between(self, domain: RaplDomain, t0: float, t1: float) -> int:
        """True number of 32-bit counter wraps in [t0, t1] — what the
        wraparound metric reports when the interval is decoded."""
        counter = self._counters[domain]
        q0, q1 = counter._quanta(np.array([t0, t1])) // counter.modulus
        return int(q1 - q0)

    # -- MSR register file ------------------------------------------------

    def read_msr(self, address: int, t: float) -> int:
        """Read an MSR by address at virtual time ``t``.

        Raises :class:`DriverError` for unimplemented addresses (the
        hardware #GP that the msr driver surfaces as EIO).
        """
        if address == MSR_RAPL_POWER_UNIT:
            return encode_units(self.units)
        if address == MSR_PKG_POWER_INFO:
            # Thermal spec power in power units, minimal encoding.
            return int(round(self.model.tdp_w / self.units.power_w))
        for domain, addr in ENERGY_STATUS_MSR.items():
            if address == addr:
                return self.energy_raw(domain, t)
        for domain, addr in POWER_LIMIT_MSR.items():
            if address == addr:
                return self._limits[domain]
        raise DriverError(f"rdmsr 0x{address:x}: unimplemented MSR (#GP)")

    def write_msr(self, address: int, value: int, t: float) -> None:
        """Write an MSR (only power-limit registers are writable)."""
        for domain, addr in POWER_LIMIT_MSR.items():
            if address == addr:
                self._limits[domain] = int(value)
                limit = decode_power_limit(int(value), self.units)
                if domain is RaplDomain.PKG and limit.enabled:
                    self.pkg_signal.set_limit(t, max(limit.limit_w, 1.0))
                return
        raise DriverError(f"wrmsr 0x{address:x}: register is read-only or unimplemented")

    # -- capping convenience -------------------------------------------------

    def set_power_limit(self, watts: float, t: float, window_s: float = 0.01) -> None:
        """Enable the PKG power cap at ``watts`` from time ``t``."""
        raw = encode_power_limit(watts, True, window_s, self.units)
        self.write_msr(POWER_LIMIT_MSR[RaplDomain.PKG], raw, t)

    def get_power_limit(self, domain: RaplDomain = RaplDomain.PKG) -> PowerLimit:
        """Decode the current power-limit register."""
        return decode_power_limit(self._limits[domain], self.units)


class _DramSignal:
    """DRAM plane power: background + dynamic, outside the package."""

    def __init__(self, board: LoadBoard, idle_w: float, dyn_w: float):
        self.board, self.idle_w, self.dyn_w = board, idle_w, dyn_w

    def value(self, t):
        return self.idle_w + self.dyn_w * self.board.utilization(Component.CPU_DRAM, t)


class _Pp1Signal:
    """PP1 (uncore device / integrated GPU) power.

    No workload component maps here in the server experiments, so it
    reads ~0 — the paper's "not useful in server platforms".
    """

    def __init__(self, board: LoadBoard, dyn_w: float):
        self.board, self.dyn_w = board, dyn_w

    def value(self, t):
        return np.zeros_like(np.asarray(t, dtype=np.float64))


class _JitteredCounter:
    """Energy counter whose update instants jitter by +/- tens of us.

    The SDM-documented cadence is ~1 ms but "the updates are not accurate
    enough for short-term energy measurements ... within the range of
    +/-50,000 cycles".  We perturb each update boundary by a deterministic
    per-index offset, so sub-millisecond reads see the documented error
    while >=60 ms reads are accurate — both paper claims.
    """

    def __init__(self, signal, board: LoadBoard, units: RaplUnits,
                 update_interval: float, jitter_s: float, seed: int,
                 domain: str = ""):
        from repro.sim.hashrand import hash_normal

        self._hash_normal = hash_normal
        self.signal = signal
        self.units = units
        self.update_interval = float(update_interval)
        self.jitter_s = float(jitter_s)
        self.seed = seed
        self.modulus = 1 << 32
        self._integral = BoardTrackingIntegral(signal, board, dt=1e-3)
        # Wraparound events are emitted against this label; the counter
        # knows its true (unwrapped) accumulation, so it can report the
        # exact wrap count even where consumers only see a modular value.
        self._wraps = RAPL_WRAPAROUNDS.labels(domain or "unknown")

    def wrap_period(self, mean_rate: float) -> float:
        if mean_rate <= 0.0:
            return float("inf")
        return self.modulus * self.units.energy_j / mean_rate

    def _quanta(self, times: np.ndarray) -> np.ndarray:
        """Unwrapped accumulated energy in counter quanta at each time in
        ``times`` (int64): the one read every counter view goes through."""
        times = np.asarray(times, dtype=np.float64)
        if np.any(times < 0.0):
            raise SensorError("cannot read counter before t=0")
        k = np.floor(times / self.update_interval).astype(np.int64)
        jitter = self._hash_normal(self.seed, k) * (self.jitter_s / 2.0)
        # Jitter never reorders updates or reaches past the read time.
        update_t = np.minimum(
            np.maximum(k * self.update_interval + jitter, 0.0), times
        )
        update_t = np.where(k <= 0, 0.0, update_t)
        energy = self._integral.value(update_t)
        return np.floor(energy / self.units.energy_j + 1e-9).astype(np.int64)

    def raw_block(self, times: np.ndarray) -> np.ndarray:
        """Register contents (the wrapped quanta) at each time in ``times``."""
        return self._quanta(times) % self.modulus

    def delta(self, t0: float, t1: float) -> float:
        """Single-wrap-corrected delta, as every RAPL consumer decodes it.

        The decode stays faithfully wrong past one wrap — that is the
        paper's erroneous-data failure — but the *true* wrap count for
        the interval is emitted to ``repro_rapl_wraparounds_total``, one
        increment per wrap, so multi-wrap sampling is observable even
        though it is not recoverable.
        """
        if t1 < t0:
            raise SensorError(f"reads out of order: {t0} > {t1}")
        q0, q1 = (int(q) for q in self._quanta(np.array([t0, t1])))
        wraps = q1 // self.modulus - q0 // self.modulus
        if wraps > 0:
            self._wraps.inc(wraps)
        diff = (q1 - q0) % self.modulus
        return diff * self.units.energy_j
