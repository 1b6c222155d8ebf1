"""Ready-made simulated testbeds.

Factories assembling the hardware configurations the paper measures,
wired and ready for MonEQ: a RAPL workstation, a GPU node, a Xeon Phi
node with all three collection paths, a multi-accelerator node, and the
Stampede slice used for Figure 8.  Examples and benchmarks build on
these instead of re-plumbing devices by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.host.cluster import Cluster
from repro.host.kernel import Kernel
from repro.host.node import Node
from repro.nvml.api import NvmlLibrary
from repro.nvml.device import KEPLER_K20, GpuDevice, GpuModel
from repro.rapl.driver import install_msr_driver
from repro.rapl.package import SANDY_BRIDGE, SANDY_BRIDGE_EP, CpuModel, CpuPackage
from repro.sim.rng import RngRegistry
from repro.workloads.base import Workload
from repro.workloads.gaussian import GaussianEliminationWorkload
from repro.xeonphi.card import XEON_PHI_SE10P, PhiCard
from repro.xeonphi.ipmb import BaseboardManagementController, SmcIpmbResponder
from repro.xeonphi.micras import MicrasDaemon
from repro.xeonphi.scif import ScifNetwork
from repro.xeonphi.smc import SystemManagementController
from repro.xeonphi.sysmgmt import SysMgmtApi


def rapl_node(seed: int = 0x5EED, model: CpuModel = SANDY_BRIDGE,
              kernel: str = "2.6.32", hostname: str = "rapl-host",
              workload: Workload | None = None,
              workload_start: float = 5.0) -> tuple[Node, Workload]:
    """A workstation with one RAPL-capable socket and the msr driver
    loaded with read-only access granted (the paper's deployment).

    Returns (node, workload); the workload is scheduled on the socket
    but virtual time has not advanced yet.
    """
    node = Node(hostname, kernel=Kernel(kernel), rng=RngRegistry(seed))
    package = CpuPackage(model, rng=node.rng.fork("cpu0"))
    node.attach("cpu", package)
    install_msr_driver(node)
    driver = node.kernel.modprobe("msr")
    driver.grant_readonly_access()
    load = workload if workload is not None else GaussianEliminationWorkload()
    package.board.schedule(load, t_start=workload_start)
    return node, load


def gpu_node(seed: int = 0x5EED, model: GpuModel = KEPLER_K20,
             hostname: str = "gpu-host") -> tuple[Node, GpuDevice, NvmlLibrary]:
    """A node with one Kepler GPU and an initialized NVML library."""
    node = Node(hostname, rng=RngRegistry(seed))
    gpu = GpuDevice(model, rng=node.rng.fork("gpu0"), index=0)
    node.attach("gpu", gpu)
    nvml = NvmlLibrary(node)
    nvml.init()
    return node, gpu, nvml


@dataclass
class PhiRig:
    """One Phi card with every collection path wired."""

    node: Node
    card: PhiCard
    smc: SystemManagementController
    scif: ScifNetwork
    sysmgmt: SysMgmtApi
    micras: MicrasDaemon
    bmc: BaseboardManagementController


def phi_node(seed: int = 0x5EED, hostname: str = "phi-host") -> PhiRig:
    """A node with one Xeon Phi and the in-band, daemon and out-of-band
    paths all operational."""
    node = Node(hostname, rng=RngRegistry(seed))
    card = PhiCard(XEON_PHI_SE10P, rng=node.rng.fork("mic0"), mic_index=0,
                   clock=node.clock)
    node.attach("mic", card)
    smc = SystemManagementController(card)
    scif = ScifNetwork(node.clock, card_count=1)
    sysmgmt = SysMgmtApi(scif, card, smc)
    micras = MicrasDaemon(card, smc)
    micras.mount()
    node.attach("micras", micras)
    bmc = BaseboardManagementController(SmcIpmbResponder(smc, node.clock), node.clock)
    return PhiRig(node=node, card=card, smc=smc, scif=scif,
                  sysmgmt=sysmgmt, micras=micras, bmc=bmc)


def multi_device_node(seed: int = 0x5EED,
                      hostname: str = "hybrid-host") -> tuple[Node, PhiRig]:
    """A node carrying a CPU socket, a K20 *and* a Phi — the paper's
    'profiling is possible for both of these devices at the same time'
    configuration."""
    node = Node(hostname, rng=RngRegistry(seed))
    package = CpuPackage(SANDY_BRIDGE_EP, rng=node.rng.fork("cpu0"))
    node.attach("cpu", package)
    gpu = GpuDevice(KEPLER_K20, rng=node.rng.fork("gpu0"), index=0)
    node.attach("gpu", gpu)
    card = PhiCard(XEON_PHI_SE10P, rng=node.rng.fork("mic0"), mic_index=0,
                   clock=node.clock)
    node.attach("mic", card)
    smc = SystemManagementController(card)
    scif = ScifNetwork(node.clock, card_count=1)
    rig = PhiRig(
        node=node, card=card, smc=smc, scif=scif,
        sysmgmt=SysMgmtApi(scif, card, smc),
        micras=MicrasDaemon(card, smc),
        bmc=BaseboardManagementController(SmcIpmbResponder(smc, node.clock),
                                          node.clock),
    )
    rig.micras.mount()
    node.attach("micras", rig.micras)
    return node, rig


def fleet_node(seed: int = 0x5EED,
               hostname: str = "fleet-host",
               grant_msr_access: bool = True) -> tuple[Node, dict]:
    """One node carrying **every registered vendor path** — the whole
    mechanism fleet on a shared clock, in registry order.

    Returns ``(node, backends)`` where ``backends`` maps mechanism name
    to a live backend: an EMON node board, the three RAPL access paths
    over one Sandy Bridge-EP socket, NVML on a K20, and the Phi's
    in-band, daemon and out-of-band paths.  The chaos scenarios and the
    fleet-wide failure tests run their sessions on this rig.

    ``grant_msr_access=False`` skips the paper's chmod ritual, leaving
    ``/dev/cpu/*/msr`` root-only — credentialed reads of ``rapl_msr``
    by an unprivileged user then fail at the chardev gate (the service
    testbed uses this to exercise its 403 path).
    """
    from repro.bgq.emon import EmonInterface
    from repro.bgq.topology import NodeBoard
    from repro.core.moneq.backends import (
        BgqEmonBackend,
        NvmlBackend,
        PhiIpmbBackend,
        PhiMicrasBackend,
        PhiMicsmcBackend,
        PhiSysMgmtBackend,
        RaplMsrBackend,
        RaplPerfBackend,
        RaplPowercapBackend,
    )
    from repro.rapl.perf_event import PerfEventRapl
    from repro.rapl.powercap import install_powercap_driver

    node = Node(hostname, kernel=Kernel("3.14"), rng=RngRegistry(seed))
    package = CpuPackage(SANDY_BRIDGE_EP, rng=node.rng.fork("cpu0"))
    node.attach("cpu", package)
    install_msr_driver(node)
    driver = node.kernel.modprobe("msr")
    if grant_msr_access:
        driver.grant_readonly_access()
    install_powercap_driver(node)
    node.kernel.modprobe("intel_rapl")

    gpu = GpuDevice(KEPLER_K20, rng=node.rng.fork("gpu0"), index=0)
    node.attach("gpu", gpu)
    NvmlLibrary(node).init()

    card = PhiCard(XEON_PHI_SE10P, rng=node.rng.fork("mic0"), mic_index=0,
                   clock=node.clock)
    node.attach("mic", card)
    smc = SystemManagementController(card)
    scif = ScifNetwork(node.clock, card_count=1)
    micras = MicrasDaemon(card, smc)
    micras.mount()
    node.attach("micras", micras)

    board = NodeBoard("R00-M0-N00", node.rng.fork("bgq"))

    backends = {
        "emon": BgqEmonBackend(EmonInterface(board, node.clock)),
        "rapl_msr": RaplMsrBackend(package, label=f"{hostname}-socket0",
                                   node=node),
        "rapl_powercap": RaplPowercapBackend(node),
        "rapl_perf": RaplPerfBackend(PerfEventRapl(node, package)),
        "nvml": NvmlBackend(gpu),
        "sysmgmt": PhiSysMgmtBackend(SysMgmtApi(scif, card, smc)),
        "micras": PhiMicrasBackend(micras),
        "ipmb": PhiIpmbBackend(BaseboardManagementController(
            SmcIpmbResponder(smc, node.clock), node.clock)),
        "micsmc": PhiMicsmcBackend(smc),
    }
    return node, backends


def mechanism_backend(name: str, seed: int = 0x5EED):
    """A live backend for one declared mechanism, on its own testbed
    — the factory the catalog-parametrized failure tests build from,
    so a newly declared :class:`~repro.mech.registry.MechanismSpec` is
    exercised without touching any hand-maintained list."""
    _, backends = fleet_node(seed=seed)
    if name not in backends:
        raise ConfigError(
            f"unknown mechanism {name!r}; the rig has {sorted(backends)}")
    return backends[name]


def stampede_slice(cards: int = 128, seed: int = 0x5EED) -> Cluster:
    """The Figure 8 testbed: ``cards`` Stampede nodes, each with two
    Sandy Bridge-EP sockets and one Xeon Phi SE10P."""
    cluster = Cluster("stampede", rng=RngRegistry(seed))

    def factory(hostname, rng, clock):
        node = Node(hostname, rng=rng, clock=clock)
        for s in range(2):
            node.attach("cpu", CpuPackage(SANDY_BRIDGE_EP, rng=rng.fork(f"cpu{s}"),
                                          socket=s))
        card = PhiCard(XEON_PHI_SE10P, rng=rng.fork("mic0"), mic_index=0,
                       clock=clock)
        node.attach("mic", card)
        return node

    cluster.populate(cards, factory)
    return cluster
