"""A host node: kernel + VFS + processes + attached devices.

Nodes are the unit every collection mechanism hangs off: the RAPL driver
registers chardevs in the node's VFS, NVML enumerates the node's GPUs,
SCIF connects the node to its Xeon Phi cards, and MonEQ sessions profile
one workload run on one node (or one rank's slice of a job).
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import DeviceNotFoundError
from repro.host.kernel import Kernel
from repro.host.process import Process, ProcessTable
from repro.host.vfs import VirtualFileSystem
from repro.sim.clock import VirtualClock
from repro.sim.events import EventQueue
from repro.sim.rng import RngRegistry


class Node:
    """One host in the simulated machine room.

    Parameters
    ----------
    hostname:
        Unique name, e.g. ``"stampede-c401-001"``.
    kernel:
        Kernel instance (defaults to a 2015-typical 2.6.32).
    rng:
        Seed registry; device sensors derive their noise streams from it.
    clock:
        Shared virtual clock; a fresh one is created when omitted.
    """

    def __init__(
        self,
        hostname: str,
        kernel: Kernel | None = None,
        rng: RngRegistry | None = None,
        clock: VirtualClock | None = None,
    ):
        self.hostname = hostname
        self.kernel = kernel if kernel is not None else Kernel()
        self.rng = rng if rng is not None else RngRegistry()
        self.clock = clock if clock is not None else VirtualClock()
        self.events = EventQueue(self.clock)
        self.vfs = VirtualFileSystem()
        self.processes = ProcessTable()
        self._devices: dict[str, list[object]] = {}
        for directory in ("/dev", "/sys", "/proc", "/tmp", "/var", "/var/log"):
            self.vfs.mkdir(directory, parents=True)

    # -- devices ------------------------------------------------------------

    def attach(self, kind: str, device: object) -> int:
        """Attach a device under a kind key ("cpu", "gpu", "mic"); returns
        its index within that kind."""
        devices = self._devices.setdefault(kind, [])
        devices.append(device)
        return len(devices) - 1

    def devices(self, kind: str) -> list[object]:
        """All devices of a kind (possibly empty)."""
        return list(self._devices.get(kind, []))

    def device(self, kind: str, index: int = 0) -> object:
        devices = self._devices.get(kind, [])
        if not 0 <= index < len(devices):
            raise DeviceNotFoundError(
                f"{self.hostname}: no {kind} device at index {index} "
                f"(have {len(devices)})"
            )
        return devices[index]

    def device_kinds(self) -> list[str]:
        return sorted(k for k, v in self._devices.items() if v)

    # -- convenience ----------------------------------------------------------

    def spawn(self, name: str, creds=None) -> Process:
        """Spawn a process on this node."""
        from repro.host.permissions import USER

        return self.processes.spawn(name, creds if creds is not None else USER)

    def run_until(self, t: float) -> int:
        """Advance this node's event queue to virtual time ``t``."""
        return self.events.run_until(t)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = {k: len(v) for k, v in self._devices.items() if v}
        return f"Node({self.hostname!r}, devices={kinds})"


def total_device_count(nodes: Iterable[Node], kind: str) -> int:
    """Total devices of ``kind`` across nodes (e.g. 128 Phi cards on the
    Stampede slice of Figure 8)."""
    return sum(len(n.devices(kind)) for n in nodes)
