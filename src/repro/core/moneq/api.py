"""The two-line MonEQ API.

"With as few as two lines of code on any of the hardware platforms
mentioned in this paper one can easily obtain environmental data for
analysis."  ``initialize(node)`` auto-detects the node's devices and
builds the right backends; ``finalize(session)`` returns the traces and
the overhead report.
"""

from __future__ import annotations

from repro.core.moneq.backends import NvmlBackend, PhiMicrasBackend, RaplMsrBackend
from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.session import MoneqResult, MoneqSession
from repro.errors import ConfigError
from repro.host.node import Node
from repro.mech.mechanism import Backend


def backends_for_node(node: Node) -> list[Backend]:
    """Auto-detect profiling backends for a node's devices.

    CPUs get the RAPL MSR backend, Kepler GPUs the NVML backend, and
    Phi cards the daemon backend (the cheaper of the two paths — MonEQ's
    default); pre-Kepler GPUs are skipped because NVML exposes no power
    data for them.  "If a system has both a NVIDIA GPU as well as an
    Intel Xeon Phi, profiling is possible for both of these devices at
    the same time."
    """
    backends: list[Backend] = []
    for i, package in enumerate(node.devices("cpu")):
        backends.append(RaplMsrBackend(package, label=f"{node.hostname}-socket{i}"))
    for gpu in node.devices("gpu"):
        if gpu.model.supports_power_readings:
            backends.append(NvmlBackend(gpu))
    for daemon in node.devices("micras"):
        backends.append(PhiMicrasBackend(daemon))
    if not backends:
        raise ConfigError(
            f"node {node.hostname} has no profilable devices "
            f"(kinds: {node.device_kinds() or 'none'})"
        )
    return backends


def initialize(node: Node, config: MoneqConfig | None = None) -> MoneqSession:
    """Line 1: ``MonEQ_Initialize()`` for everything on a node."""
    backends = backends_for_node(node)
    return MoneqSession(
        backends=backends, queue=node.events, config=config,
        node_count=1, vfs=node.vfs,
    )


def finalize(session: MoneqSession) -> MoneqResult:
    """Line 2: ``MonEQ_Finalize()`` — stop, write files, report."""
    return session.finalize()


def profile_run(node: Node, duration_s: float,
                config: MoneqConfig | None = None) -> MoneqResult:
    """Convenience driver: initialize, advance the node's virtual time
    through ``duration_s`` (firing the collection timer), finalize."""
    if duration_s <= 0.0:
        raise ConfigError(f"duration must be positive, got {duration_s}")
    session = initialize(node, config)
    node.events.run_until(node.clock.now + duration_s)
    return finalize(session)
