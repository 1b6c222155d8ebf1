"""The ``msr`` kernel driver.

"Once the MSR driver is built and loaded, it creates a character device
for each logical processor under /dev/cpu/*/msr.  ...  The MSR driver
must be given the correct read-only, root-only access before it is
accessible by any process running on the system."  (paper §II-B)

:func:`install_msr_driver` registers the module with a node's kernel;
``modprobe("msr")`` then creates the chardevs.  Reads are positional:
offset selects the MSR, size must be 8, and each read charges the
paper's 0.03 ms to the node clock and the calling process.
"""

from __future__ import annotations

import struct
from functools import partial

from repro.errors import AccessDeniedError, DriverError, VfsError
from repro.host.node import Node
from repro.host.permissions import Credentials
from repro.host.process import Process
from repro.host.vfs import VirtualFileSystem
from repro.obs.instruments import collector
from repro.rapl.package import CpuPackage
from repro.sim.clock import VirtualClock

_OBS = collector("rapl_msr")


class _MsrCharDevice:
    """Backend for one ``/dev/cpu/<n>/msr`` node."""

    def __init__(self, clock: VirtualClock, package: CpuPackage,
                 cpu_index: int, process: Process | None = None):
        self.clock = clock
        self.package = package
        self.cpu_index = cpu_index
        #: Process charged for query latency; set per-open by callers
        #: that care about accounting.
        self.process = process

    def pread(self, offset: int, size: int, creds: Credentials) -> bytes:
        if size != 8:
            raise DriverError(f"msr reads must be 8 bytes, got {size}")
        # Charge the query cost before the value is produced: the value
        # returned is the register contents at completion time.
        self.clock.advance(CpuPackage.MSR_READ_LATENCY_S)
        if self.process is not None and self.process.alive:
            self.process.charge(CpuPackage.MSR_READ_LATENCY_S)
        _OBS.record_query(CpuPackage.MSR_READ_LATENCY_S)
        try:
            value = self.package.read_msr(offset, self.clock.now)
        except DriverError:
            _OBS.record_error("unimplemented_msr")
            raise
        return struct.pack("<Q", value)

    def pwrite(self, offset: int, data: bytes, creds: Credentials) -> int:
        if not creds.is_root:
            # Writes stay root-only even after a read-only chmod.
            raise DriverError("wrmsr requires root")
        if len(data) != 8:
            raise DriverError(f"msr writes must be 8 bytes, got {len(data)}")
        (value,) = struct.unpack("<Q", data)
        self.clock.advance(CpuPackage.MSR_READ_LATENCY_S)
        self.package.write_msr(offset, value, self.clock.now)
        return 8


class MsrDriver:
    """Loaded state of the msr module on one node.

    It holds the node's filesystem and clock, not the node: the node's
    kernel holds the driver, so a reference back would close a cycle.
    """

    def __init__(self, vfs: VirtualFileSystem, clock: VirtualClock,
                 packages: list[CpuPackage]):
        self.vfs = vfs
        self.devices: list[_MsrCharDevice] = []
        cpu_index = 0
        for package in packages:
            for _ in range(package.logical_cpus):
                dev = _MsrCharDevice(clock, package, cpu_index)
                path_dir = f"/dev/cpu/{cpu_index}"
                vfs.mkdir(path_dir, parents=True)
                vfs.create_chardev(f"{path_dir}/msr", dev, mode=0o600)
                self.devices.append(dev)
                cpu_index += 1
        if cpu_index == 0:
            raise DriverError("msr: no CPU packages on this node")

    def unload(self) -> None:
        """Remove the chardev nodes (kernel rmmod)."""
        for i in range(len(self.devices)):
            try:
                self.vfs.remove(f"/dev/cpu/{i}/msr")
                self.vfs.remove(f"/dev/cpu/{i}")
            except VfsError:  # pragma: no cover - defensive
                pass
        self.devices.clear()

    def grant_readonly_access(self) -> None:
        """The paper's deployment step: read-only, world-readable nodes so
        an unprivileged profiler can poll."""
        for i in range(len(self.devices)):
            self.vfs.chmod(f"/dev/cpu/{i}/msr", 0o444)

    def attach_process(self, process: Process) -> None:
        """Account subsequent query latency to ``process``."""
        for dev in self.devices:
            dev.process = process


def install_msr_driver(node: Node) -> None:
    """Register the msr module with the node's kernel (available for
    ``modprobe("msr")``; not yet loaded), built for the CPU packages
    attached now."""
    node.kernel.register_module("msr", partial(
        MsrDriver, node.vfs, node.clock, node.devices("cpu")))


def read_msr_userspace(node: Node, cpu: int, address: int,
                       creds: Credentials) -> int:
    """What a userspace tool does: open ``/dev/cpu/<n>/msr`` and pread.

    Raises AccessDeniedError unless the driver nodes were opened up (or
    the caller is root), exactly the gate the paper describes.  Denials
    are counted in ``repro_collector_errors_total{mechanism="rapl_msr",
    kind="permission_denied"}`` — a misdeployed profiler is observable,
    not just broken.
    """
    try:
        with node.vfs.open(f"/dev/cpu/{cpu}/msr", "r", creds) as fh:
            (value,) = struct.unpack("<Q", fh.pread(address, 8))
            return value
    except AccessDeniedError:
        _OBS.record_error("permission_denied")
        raise
