"""The powercap sysfs interface (``/sys/class/powercap``).

The third RAPL access path of the paper's era: Linux 3.13 added the
``intel-rapl`` powercap driver, exposing each domain as a sysfs node
with ``energy_uj`` (microjoule counter, world-readable), ``name``, and
root-writable ``power_limit_uw`` / ``enabled`` knobs.  Unlike the raw
msr chardev it needs no chmod ritual for reads, which is why later
tooling (and the Xeon Phi's own stack) gravitated to it.

Layout mirrors the kernel:

    /sys/class/powercap/intel-rapl:0/            <- package domain
        name  energy_uj  power_limit_uw  enabled
    /sys/class/powercap/intel-rapl:0:0/          <- pp0 subdomain
    /sys/class/powercap/intel-rapl:0:1/          <- pp1
    /sys/class/powercap/intel-rapl:0:2/          <- dram
"""

from __future__ import annotations

from functools import partial

from repro.errors import DriverError, KernelTooOldError
from repro.host.kernel import KernelVersion
from repro.host.node import Node
from repro.host.vfs import VirtualFileSystem
from repro.rapl.domains import RaplDomain
from repro.rapl.package import CpuPackage
from repro.sim.clock import VirtualClock

#: First kernel with the intel-rapl powercap driver.
POWERCAP_MIN_VERSION = KernelVersion(3, 13)

#: Subdomain suffix order under each package node.
SUBDOMAINS = (RaplDomain.PP0, RaplDomain.PP1, RaplDomain.DRAM)


class PowercapDriver:
    """Loaded state of the intel-rapl powercap driver on one node.

    Like the msr driver it holds the node's filesystem and clock, not
    the node, and its sysfs providers hold only the package and clock.
    """

    def __init__(self, kernel_version: KernelVersion, vfs: VirtualFileSystem,
                 clock: VirtualClock, packages: list[CpuPackage]):
        if kernel_version < POWERCAP_MIN_VERSION:
            raise KernelTooOldError(
                f"powercap needs Linux >= {POWERCAP_MIN_VERSION}, node runs "
                f"{kernel_version}"
            )
        if not packages:
            raise DriverError("intel-rapl: no CPU packages on this node")
        self.vfs = vfs
        self.zones: list[str] = []
        vfs.mkdir("/sys/class/powercap", parents=True)
        for index, package in enumerate(packages):
            base = f"/sys/class/powercap/intel-rapl:{index}"
            self._make_zone(base, package, RaplDomain.PKG,
                            f"package-{index}", clock)
            for sub, domain in enumerate(SUBDOMAINS):
                self._make_zone(f"{base}:{sub}", package, domain,
                                domain.value, clock)

    def _make_zone(self, base: str, package: CpuPackage, domain: RaplDomain,
                   name: str, clock: VirtualClock) -> None:
        vfs = self.vfs
        vfs.mkdir(base, parents=True)
        vfs.create_dynamic(f"{base}/name", lambda name=name: f"{name}\n",
                           mode=0o444)
        vfs.create_dynamic(
            f"{base}/energy_uj",
            _energy_provider(package, domain, clock),
            mode=0o444,  # world-readable: no chmod ritual
        )
        vfs.create_dynamic(
            f"{base}/power_limit_uw",
            lambda package=package, domain=domain:
                f"{int(package.get_power_limit(domain).limit_w * 1e6)}\n",
            mode=0o644,
        )
        vfs.create_dynamic(
            f"{base}/enabled",
            lambda package=package, domain=domain:
                f"{int(package.get_power_limit(domain).enabled)}\n",
            mode=0o644,
        )
        self.zones.append(base)

    def unload(self) -> None:
        """rmmod: tear the sysfs tree down (leaf files then zones)."""
        for base in sorted(self.zones, key=len, reverse=True):
            for leaf in ("name", "energy_uj", "power_limit_uw", "enabled"):
                self.vfs.remove(f"{base}/{leaf}")
            self.vfs.remove(base)
        self.zones.clear()


def _energy_provider(package: CpuPackage, domain: RaplDomain,
                     clock: VirtualClock):
    def produce() -> str:
        raw = package.energy_raw(domain, clock.now)
        micro_j = int(raw * package.units.energy_j * 1e6)
        return f"{micro_j}\n"

    return produce


def install_powercap_driver(node: Node) -> None:
    """Register for ``modprobe("intel_rapl")``, built for the node's
    kernel and the CPU packages attached now."""
    node.kernel.register_module("intel_rapl", partial(
        PowercapDriver, node.kernel.version, node.vfs, node.clock,
        node.devices("cpu")))


def read_energy_uj(node: Node, zone: str, creds=None) -> int:
    """Userspace read of one zone's energy counter (microjoules)."""
    from repro.host.permissions import USER

    text = node.vfs.read_text(f"{zone}/energy_uj",
                              creds if creds is not None else USER)
    return int(text.strip())
