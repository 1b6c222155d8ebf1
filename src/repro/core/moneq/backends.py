"""The concrete MonEQ backends: eight declared vendor paths.

Each backend is a thin :class:`~repro.mech.mechanism.Mechanism`
composition — a registered :class:`~repro.mech.registry.MechanismSpec`
(access channel + freshness model + capability declaration + field
list) bound to a :class:`~repro.mech.source.SensorSource` wrapping the
live device.  The scalar ``read_at`` and vectorized ``read_block`` are
generic, implemented once at the mechanism layer with parity guaranteed
there; nothing below declares a read body.

Minimum polling intervals follow the paper, derived by each spec's
freshness model:

* BG/Q EMON: 560 ms (two sensor generations) at 1.10 ms/query = 0.19 %;
* RAPL via MSR: 60 ms — faster reads hit the documented update jitter,
  slower than ~60 s overflows the counter — at 0.03 ms/query;
* RAPL via perf_event: same counters, but each read crosses the kernel
  (~0.10 ms modeled syscall cost);
* NVML: 60 ms hardware refresh at ~1.3 ms/query (1.25 % at 100 ms);
* Phi SysMgmt (in-band): 100 ms at 14.2 ms/query (the paper's ~14 %);
* Phi MICRAS daemon: 50 ms (SMC refresh) at 0.04 ms/query;
* Phi out-of-band (BMC over IPMB): free for host and card, but 22 ms
  per sensor exchange and milli-unit wire quantization.
"""

from __future__ import annotations

from repro.bgq.emon import (
    EMON_QUERY_LATENCY_S,
    GENERATION_PERIOD_S,
    EmonInterface,
)
from repro.bgq.source import EMON_FIELDS, EmonSource
from repro.errors import ConfigError, DriverNotLoadedError
from repro.mech.capability_decl import (
    BGQ_DECL,
    NVML_DECL,
    RAPL_DECL,
    XEON_PHI_DECL,
)
from repro.mech.channel import MILLI_UNITS, AccessChannel
from repro.mech.freshness import FreshnessModel
from repro.mech.mechanism import Mechanism
from repro.mech.registry import MechanismSpec, register
from repro.nvml.device import GpuDevice
from repro.nvml.source import NVML_FIELDS, NvmlSource
from repro.rapl.domains import RaplDomain
from repro.rapl.package import CpuPackage
from repro.rapl.perf_event import (
    PERF_RAPL_EVENTS,
    PERF_READ_LATENCY_S,
    PerfEventRapl,
)
from repro.rapl.sources import (
    RAPL_FIELDS,
    MsrCounterSource,
    PerfCounterSource,
    PowercapCounterSource,
)
from repro.xeonphi.ipmb import (
    IPMB_EXCHANGE_LATENCY_S,
    BaseboardManagementController,
)
from repro.xeonphi.micras import MICRAS_READ_LATENCY_S, MicrasDaemon
from repro.xeonphi.smc import SystemManagementController
from repro.xeonphi.sources import (
    IPMB_SENSORS,
    MICRAS_SENSORS,
    MICSMC_SENSORS,
    SYSMGMT_SENSORS,
    SmcSensorSource,
)
from repro.xeonphi.sysmgmt import SYSMGMT_QUERY_LATENCY_S, SysMgmtApi

# ---------------------------------------------------------------------------
# The declarations.  Everything MonEQ (and Table II) needs to know about
# a vendor path is here; the classes below only bind live devices.
# ---------------------------------------------------------------------------

#: One NVML library call (board power + die temperature): dispatch plus
#: a PCIe round trip, the paper's ~1.3 ms per query.
NVML_QUERY_LATENCY_S = 1.3e-3

#: RAPL's freshness floor is shared by all three access paths — same
#: counters, same documented update jitter underneath.
_RAPL_FRESHNESS = FreshnessModel.floor(
    0.060, note="documented update jitter below 60 ms; ~60 s wraps the counter"
)

EMON_SPEC = register(MechanismSpec(
    name="emon",
    platform="Blue Gene/Q",
    channel=AccessChannel(
        "emon-api", EMON_QUERY_LATENCY_S,
        description="in-band EMON personality call, all 7 domains at once",
    ),
    freshness=FreshnessModel.generations(
        GENERATION_PERIOD_S, 2,
        note="data comes from the oldest of two sensor generations",
    ),
    capability=BGQ_DECL,
    fields=EMON_FIELDS,
    summary="7-domain node-card V*I via the EMON API",
))

RAPL_MSR_SPEC = register(MechanismSpec(
    name="rapl_msr",
    platform="RAPL",
    channel=AccessChannel(
        "msr-chardev", CpuPackage.MSR_READ_LATENCY_S,
        permission="root",
        description="pread of the energy-status MSR, one per domain; "
                    "root-only until the chmod ritual opens /dev/cpu/*/msr",
    ),
    freshness=_RAPL_FRESHNESS,
    capability=RAPL_DECL,
    fields=RAPL_FIELDS,
    queries_per_read=len(RaplDomain),
    summary="socket energy counters via direct MSR reads",
))

RAPL_POWERCAP_SPEC = register(MechanismSpec(
    name="rapl_powercap",
    platform="RAPL",
    channel=AccessChannel(
        "powercap-sysfs", 0.05e-3,
        description="sysfs energy_uj open+read+parse, one per zone; "
                    "needs kernel >= 3.13 with intel_rapl loaded",
    ),
    freshness=_RAPL_FRESHNESS,
    capability=RAPL_DECL,
    fields=RAPL_FIELDS,
    queries_per_read=len(RaplDomain),
    summary="the same counters through the powercap sysfs tree",
))

RAPL_PERF_SPEC = register(MechanismSpec(
    name="rapl_perf",
    platform="RAPL",
    channel=AccessChannel(
        "perf-syscall", PERF_READ_LATENCY_S,
        description="perf_event read syscall per power/energy-* event; "
                    "needs kernel >= 3.14",
    ),
    freshness=_RAPL_FRESHNESS,
    capability=RAPL_DECL,
    fields=tuple(f"{d.value}_w" for d in PERF_RAPL_EVENTS.values()),
    queries_per_read=len(PERF_RAPL_EVENTS),
    summary="the same counters normalized to 2^-32 J by perf",
))

NVML_SPEC = register(MechanismSpec(
    name="nvml",
    platform="NVML",
    channel=AccessChannel(
        "nvml-library", NVML_QUERY_LATENCY_S,
        description="NVML library call covering board power + die temp",
    ),
    freshness=FreshnessModel.refresh(
        0.060, note="board power register refreshes every ~60 ms",
    ),
    capability=NVML_DECL,
    fields=NVML_FIELDS,
    summary="Kepler board power and die temperature via NVML",
))

SYSMGMT_SPEC = register(MechanismSpec(
    name="sysmgmt",
    platform="Xeon Phi",
    channel=AccessChannel(
        "scif-sysmgmt", SYSMGMT_QUERY_LATENCY_S,
        description="in-band SCIF round trip waking the card per query",
    ),
    freshness=FreshnessModel.floor(
        0.100, note="documented floor of the in-band management path",
    ),
    capability=XEON_PHI_DECL,
    fields=tuple(name for name, _ in SYSMGMT_SENSORS),
    summary="in-band SysMgmt API; expensive and power-perturbing",
))

MICRAS_SPEC = register(MechanismSpec(
    name="micras",
    platform="Xeon Phi",
    channel=AccessChannel(
        "micras-pseudofile", MICRAS_READ_LATENCY_S,
        description="device-side /sys/class/micras read, one per sensor",
    ),
    freshness=FreshnessModel.refresh(
        0.050, note="SMC register refresh period",
    ),
    capability=XEON_PHI_DECL,
    fields=tuple(name for name, _ in MICRAS_SENSORS),
    queries_per_read=len(MICRAS_SENSORS),
    summary="MICRAS daemon pseudo-files; cheap but contends on-card",
))

IPMB_SPEC = register(MechanismSpec(
    name="ipmb",
    platform="Xeon Phi",
    channel=AccessChannel(
        "bmc-ipmb", IPMB_EXCHANGE_LATENCY_S,
        quantization=MILLI_UNITS,
        description="BMC-to-SMC bus exchange per sensor; costs host and "
                    "card nothing, values milli-unit quantized on the wire",
    ),
    freshness=FreshnessModel.floor(
        0.100, note="documented floor of the out-of-band path",
    ),
    capability=XEON_PHI_DECL,
    fields=tuple(name for name, _ in IPMB_SENSORS),
    queries_per_read=len(IPMB_SENSORS),
    summary="out-of-band BMC polling over IPMB",
))

MICSMC_SPEC = register(MechanismSpec(
    name="micsmc",
    platform="Xeon Phi",
    channel=AccessChannel(
        "scif-micsmc", SYSMGMT_QUERY_LATENCY_S,
        description="host-side micsmc control-panel poll (paper §II-D): "
                    "one in-band SCIF round trip per card-status sensor",
    ),
    freshness=FreshnessModel.floor(
        0.100, note="rides the in-band management path and its floor",
    ),
    capability=XEON_PHI_DECL,
    fields=tuple(name for name, _ in MICSMC_SENSORS),
    queries_per_read=len(MICSMC_SENSORS),
    summary="the micsmc control-panel utility polling card status",
))

# ---------------------------------------------------------------------------
# The compositions: historical constructor signatures, no read bodies.
# ---------------------------------------------------------------------------


class BgqEmonBackend(Mechanism):
    """The 7-domain EMON view of one node card (32 nodes)."""

    def __init__(self, emon: EmonInterface):
        super().__init__(EMON_SPEC, EmonSource(emon),
                         label=emon.node_board.location)
        self.emon = emon


class RaplMsrBackend(Mechanism):
    """Socket-level RAPL via direct MSR reads.

    Power per domain is computed from energy-counter deltas between
    consecutive ticks, with the standard single-wrap correction — so a
    too-slow session really does produce the erroneous data the paper
    warns about.
    """

    def __init__(self, package: CpuPackage, label: str = "socket0",
                 node=None, gate_path: str = "/dev/cpu/0/msr"):
        super().__init__(RAPL_MSR_SPEC, MsrCounterSource(package), label=label)
        self.package = package
        if node is not None:
            # Credentialed reads check the real chardev node, so they
            # honor the driver's current chmod state, not just the
            # declaration.
            self.bind_gate(node.vfs, gate_path)


class RaplPowercapBackend(Mechanism):
    """Socket RAPL via the powercap sysfs tree (``energy_uj`` files).

    Functionally equivalent to :class:`RaplMsrBackend` — same counters
    underneath — but needs no chmod ritual and costs a sysfs read
    (~0.05 ms) instead of a chardev pread per domain.  Available on
    kernels >= 3.13 with the ``intel_rapl`` module loaded.
    """

    def __init__(self, node, package_index: int = 0, label: str | None = None):
        if not node.kernel.is_loaded("intel_rapl"):
            raise DriverNotLoadedError(
                "powercap backend needs modprobe('intel_rapl') first"
            )
        packages = node.devices("cpu")
        if package_index >= len(packages):
            raise ConfigError(
                f"node {node.hostname} has {len(packages)} CPU package(s); "
                f"no powercap zone {package_index}"
            )
        super().__init__(
            RAPL_POWERCAP_SPEC, PowercapCounterSource(packages[package_index]),
            label=label if label is not None else (
                f"{node.hostname}-powercap{package_index}"
            ),
        )
        self.node = node
        self.base = f"/sys/class/powercap/intel-rapl:{package_index}"


class NvmlBackend(Mechanism):
    """Board power + temperature of one Kepler GPU."""

    def __init__(self, gpu: GpuDevice,
                 query_latency_s: float = NVML_QUERY_LATENCY_S):
        if not gpu.model.supports_power_readings:
            raise ConfigError(
                f"{gpu.model.name} is pre-Kepler: NVML exposes no power data"
            )
        super().__init__(
            NVML_SPEC, NvmlSource(gpu),
            label=f"{gpu.model.name}#{gpu.index}",
            channel=NVML_SPEC.channel.with_latency(query_latency_s),
        )
        self.gpu = gpu


class PhiSysMgmtBackend(Mechanism):
    """In-band (SysMgmt API) view of one Phi card — expensive and
    power-perturbing, per the paper."""

    def __init__(self, api: SysMgmtApi):
        super().__init__(
            SYSMGMT_SPEC, SmcSensorSource(api.smc, SYSMGMT_SENSORS),
            label=f"mic{api.card.mic_index}",
        )
        self.api = api

    def on_session_start(self, t: float, interval_s: float) -> None:
        self.api.start_polling(interval_s, t)

    def on_session_stop(self, t: float) -> None:
        self.api.stop_polling(t)


class PhiMicrasBackend(Mechanism):
    """Device-side MICRAS pseudo-file view of one Phi card — cheap, but
    the read contends with the application on the card."""

    def __init__(self, daemon: MicrasDaemon):
        super().__init__(
            MICRAS_SPEC, SmcSensorSource(daemon.smc, MICRAS_SENSORS),
            label=f"mic{daemon.card.mic_index}-daemon",
        )
        self.daemon = daemon


class PhiMicsmcBackend(Mechanism):
    """The host-side ``micsmc`` control panel polling one Phi card's
    status (paper §II-D) — the same SMC registers the other paths read,
    crossed in-band over SCIF one sensor at a time."""

    def __init__(self, smc: SystemManagementController,
                 label: str | None = None):
        super().__init__(
            MICSMC_SPEC, SmcSensorSource(smc, MICSMC_SENSORS),
            label=label if label is not None else (
                f"mic{smc.card.mic_index}-micsmc"
            ),
        )
        self.smc = smc


class RaplPerfBackend(Mechanism):
    """Socket-level RAPL via the perf_event kernel interface.

    Same hardware counters as :class:`RaplMsrBackend`, but read through
    perf's normalized 2^-32 J units with a syscall crossing per event —
    the paper's "included as of Linux 3.14" path.  Session reads are
    passive (:meth:`PerfEventRapl.read_at`); the session owns time and
    charges the modeled syscall latency per tick.
    """

    def __init__(self, perf: PerfEventRapl, label: str | None = None):
        super().__init__(
            RAPL_PERF_SPEC, PerfCounterSource(perf),
            label=label if label is not None else (
                f"{perf.node.hostname}-perf{perf.package.socket}"
            ),
        )
        self.perf = perf


class PhiIpmbBackend(Mechanism):
    """Out-of-band view of one Phi card: the platform BMC polling the
    SMC over IPMB.

    The exchange costs the host and the card *nothing* — attach this
    backend with no process so the session charges no one — but every
    sensor is a full 22 ms bus round trip and values arrive quantized
    to milli-units by the wire encoding (the channel's quantization).
    """

    def __init__(self, bmc: BaseboardManagementController,
                 label: str | None = None):
        smc = bmc.responder.smc
        super().__init__(
            IPMB_SPEC, SmcSensorSource(smc, IPMB_SENSORS),
            label=label if label is not None else (
                f"mic{smc.card.mic_index}-bmc"
            ),
        )
        self.bmc = bmc
        self.smc = smc
