"""perf_event access path for RAPL.

"As of Linux 3.14 these kernel drivers have been included and are
accessible via the perf_event (perf) interface.  Unfortunately, 3.14 is
a much newer version of kernel than most distributions of Linux have."
(paper §II-B)

The interface exposes the standard ``power/energy-*`` events.  perf
normalizes RAPL readings to 2^-32 J regardless of the hardware unit,
which we reproduce.  The paper could not measure perf's query overhead
("we did not have ready access to a ... new enough kernel") but expected
it to exceed direct MSR reads due to the kernel crossing; we model a
syscall-dominated 0.10 ms and flag it as an assumption in EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelTooOldError
from repro.host.node import Node
from repro.host.process import Process
from repro.obs.instruments import collector
from repro.rapl.domains import RaplDomain
from repro.rapl.package import CpuPackage

_OBS = collector("rapl_perf")

#: perf event name per RAPL domain.
PERF_RAPL_EVENTS: dict[str, RaplDomain] = {
    "power/energy-pkg/": RaplDomain.PKG,
    "power/energy-cores/": RaplDomain.PP0,
    "power/energy-gpu/": RaplDomain.PP1,
    "power/energy-ram/": RaplDomain.DRAM,
}

#: perf normalizes all RAPL events to 2^-32 joule units.
PERF_ENERGY_UNIT_J = 2.0 ** -32

#: Modeled per-read syscall cost (assumption; see module docstring).
PERF_READ_LATENCY_S = 0.10e-3


class PerfEventRapl:
    """An opened perf RAPL event group on one package.

    Construction fails on kernels older than 3.14, reproducing the
    paper's deployment obstacle.
    """

    def __init__(self, node: Node, package: CpuPackage,
                 process: Process | None = None):
        if not node.kernel.supports_perf_rapl():
            raise KernelTooOldError(
                f"perf_event RAPL needs Linux >= 3.14, node runs "
                f"{node.kernel.version}"
            )
        self.node = node
        self.package = package
        self.process = process

    def available_events(self) -> list[str]:
        """Event names with a live domain on this package."""
        return sorted(PERF_RAPL_EVENTS)

    def read(self, event: str) -> int:
        """Read one event counter, in perf's 2^-32 J units.

        Charges the modeled syscall latency to the clock (and the
        attached process), then converts the hardware counter.
        """
        if event not in PERF_RAPL_EVENTS:
            raise KeyError(f"unknown perf event {event!r}")
        self.node.clock.advance(PERF_READ_LATENCY_S)
        if self.process is not None and self.process.alive:
            self.process.charge(PERF_READ_LATENCY_S)
        _OBS.record_query(PERF_READ_LATENCY_S)
        return self.read_at(event, self.node.clock.now)

    def read_at(self, event: str, t: float) -> int:
        """Passive counter view at virtual time ``t``: no clock movement,
        no process charge.  The one-time case of :meth:`read_block`,
        which MonEQ agents read through — the session owns time and
        charges the syscall latency itself."""
        return int(self.read_block(event, np.array([t]))[0])

    def read_block(self, event: str, times: np.ndarray) -> np.ndarray:
        """:meth:`read_at` at each time in ``times``, as an int64 array."""
        domain = PERF_RAPL_EVENTS.get(event)
        if domain is None:
            raise KeyError(f"unknown perf event {event!r}")
        raws = self.package.energy_raw_block(domain, times)
        joules = raws * self.package.units.energy_j
        return np.floor(joules / PERF_ENERGY_UNIT_J).astype(np.int64)

    def read_joules(self, event: str) -> float:
        """Convenience: event counter converted to joules."""
        return self.read(event) * PERF_ENERGY_UNIT_J
