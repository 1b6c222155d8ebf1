"""Exception hierarchy for the repro package.

Every error raised by the simulated vendor mechanisms derives from
:class:`ReproError` so callers can distinguish simulation faults from
ordinary Python errors.  The device-facing errors mirror the failure modes
the paper discusses: permission gates on the RAPL MSR driver, unsupported
hardware generations in NVML, stale or overflowed counters, and SCIF
transport failures on the Xeon Phi.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """The discrete-event simulation core was misused (time reversal,
    running a finished simulation, etc.)."""


class ClockError(SimulationError):
    """An operation attempted to move the virtual clock backwards."""


class DeviceError(ReproError):
    """Base class for errors raised by a simulated device."""


class DeviceNotFoundError(DeviceError):
    """Lookup of a device by index or handle failed."""


class UnsupportedDeviceError(DeviceError):
    """The requested operation is not supported on this device generation
    (e.g. NVML power readings on a pre-Kepler GPU)."""


class SensorError(DeviceError):
    """A sensor read failed or the sensor does not exist."""


class CounterOverflowError(SensorError):
    """An energy counter wrapped more than once between reads, making the
    delta unrecoverable (RAPL sampled slower than ~60 s)."""


class StaleDataError(SensorError):
    """The requested reading is older than the caller's staleness bound."""


class VfsError(ReproError):
    """Base class for virtual-filesystem errors."""


class FileNotFoundVfsError(VfsError):
    """Path does not exist in the virtual filesystem."""


class NotADirectoryVfsError(VfsError):
    """A path component is not a directory."""


class IsADirectoryVfsError(VfsError):
    """File operation attempted on a directory."""


class FileExistsVfsError(VfsError):
    """Exclusive creation failed because the path already exists."""


class AccessDeniedError(VfsError):
    """POSIX-style permission check failed (e.g. non-root open of
    ``/dev/cpu/0/msr``)."""


class DriverError(ReproError):
    """A simulated kernel driver rejected the request."""


class DriverNotLoadedError(DriverError):
    """The kernel driver backing an interface is not loaded (e.g. the
    ``msr`` module)."""


class KernelTooOldError(DriverError):
    """The simulated kernel predates the requested interface (perf_event
    RAPL support needs Linux >= 3.14)."""


class ScifError(DeviceError):
    """SCIF transport failure on the Xeon Phi."""


class ScifDisconnectedError(ScifError):
    """The SCIF endpoint is not connected."""


class IpmbError(DeviceError):
    """Malformed or unanswerable IPMB (out-of-band) request."""


class ChecksumError(IpmbError):
    """IPMB message failed checksum validation."""


class RuntimeSimError(ReproError):
    """Base class for SPMD runtime errors."""


class DeadlockError(RuntimeSimError):
    """All live ranks are blocked and no message can match."""


class RankError(RuntimeSimError):
    """A rank function raised; wraps the original exception."""

    def __init__(self, rank: int, original: BaseException):
        self.rank = rank
        self.original = original
        super().__init__(f"rank {rank} failed: {original!r}")


class MoneqError(ReproError):
    """Base class for MonEQ API errors."""


class MoneqStateError(MoneqError):
    """MonEQ API called out of order (finalize before initialize, nested
    initialize, tag closed twice, ...)."""


class MoneqBufferFullError(MoneqError):
    """An agent's collection buffer reached its capacity before finalize."""


class ConfigError(ReproError):
    """Invalid configuration value (polling interval out of the hardware's
    valid range, negative buffer size, ...)."""


class ObservabilityError(ReproError):
    """Misuse of the ``repro.obs`` subsystem (bad metric/label names,
    label-cardinality blowups, counters decremented, spans closed out of
    order, ...)."""


class WorkloadError(ReproError):
    """Workload model misconfiguration (negative duration, unknown
    component, overlapping phases)."""


class ExperimentExecutionError(ReproError):
    """One or more experiment tasks failed in the execution engine
    (worker crash/timeout after its retry, or a task exception)."""


class ChaosError(ReproError):
    """Misuse of the fault-injection subsystem (an unknown chaos
    scenario, ...)."""


class PackError(ConfigError):
    """Invalid scenario-pack manifest (unknown key, wrong type, missing
    mechanism, unknown pack name, ...).  The message always names the
    offending manifest field by its dotted path."""
