"""SCIF — the Symmetric Communications Interface.

"The SCIF enables communication between the host and the Xeon Phi as
well as between Xeon Phi cards within the host.  Its primary goal is to
provide a uniform API for all communication across the PCI Express
buses.  One of the most important properties of SCIF is that all drivers
should expose the same interfaces on both the host and on the Xeon Phi."
(paper §II-D, Figure 6)

The model keeps those properties: node ids (host = 0, cards = 1..N),
port-addressed endpoints with identical semantics on either side,
connect/accept rendezvous, and a message latency composed of the user→
kernel crossing on each side plus the PCIe hop — the decomposition that
explains why an in-band query is so much more expensive than a local
pseudo-file read.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ScifDisconnectedError, ScifError
from repro.obs.instruments import SCIF_BYTES, SCIF_MESSAGES, collector
from repro.sim.clock import VirtualClock

_OBS = collector("scif")

#: Well-known port of the SysMgmt agent on the card (Figure 6's
#: "SysMgmt SCIF Interface").
SCIF_SYSMGMT_PORT = 113

#: Per-message cost components (seconds).
USER_KERNEL_CROSSING_S = 0.9e-3   # user library -> kernel driver, one side
PCIE_HOP_S = 0.55e-3              # bus transit


def message_latency(payload_bytes: int = 64, bandwidth_Bps: float = 6.0e9) -> float:
    """One-way SCIF message latency: two kernel crossings + bus + wire."""
    return 2 * USER_KERNEL_CROSSING_S + PCIE_HOP_S + payload_bytes / bandwidth_Bps


class _Connection:
    """What two connected endpoints share: whether the connection is
    still up.  Each end holds it and the other end's inbox, never the
    other end, so a connected pair is no reference cycle."""

    up = True


class ScifEndpoint:
    """One side of a SCIF connection (same class host- and card-side —
    the symmetry property)."""

    def __init__(self, clock: VirtualClock, node_id: int, port: int):
        self.clock = clock
        self.node_id = node_id
        self.port = port
        self.inbox: deque[bytes] = deque()
        self._connection: _Connection | None = None
        self._peer_inbox: deque[bytes] | None = None
        self.closed = False

    @property
    def connected(self) -> bool:
        return (self._connection is not None and self._connection.up
                and not self.closed)

    def send(self, payload: bytes) -> None:
        """Deliver to the peer, charging the transit latency to the
        shared clock."""
        if not self.connected:
            _OBS.record_error("disconnected")
            raise ScifDisconnectedError(
                f"endpoint {self.node_id}:{self.port} is not connected"
            )
        self.clock.advance(message_latency(len(payload)))
        self._peer_inbox.append(payload)
        SCIF_MESSAGES.inc()
        SCIF_BYTES.inc(len(payload))

    def recv(self) -> bytes:
        """Pop the oldest delivered message (SCIF recv on ready data)."""
        if self.closed:
            _OBS.record_error("disconnected")
            raise ScifDisconnectedError("endpoint closed")
        if not self.inbox:
            raise ScifError(
                f"recv on empty endpoint {self.node_id}:{self.port} "
                "(simulated SCIF is rendezvous-free: send before recv)"
            )
        return self.inbox.popleft()

    def close(self) -> None:
        self.closed = True
        if self._connection is not None:
            self._connection.up = False
            self._connection = self._peer_inbox = None

    def _join(self, peer: "ScifEndpoint") -> None:
        """Connect this end to ``peer``."""
        self._connection = peer._connection = _Connection()
        self._peer_inbox, peer._peer_inbox = peer.inbox, self.inbox


class ScifNetwork:
    """The SCIF fabric of one host: node 0 is the host, nodes 1..N are
    the cards."""

    def __init__(self, clock: VirtualClock, card_count: int):
        if card_count < 1:
            raise ScifError("a SCIF network needs at least one card")
        self.clock = clock
        self.card_count = card_count
        self._listeners: dict[tuple[int, int], ScifEndpoint] = {}

    def valid_node(self, node_id: int) -> bool:
        return 0 <= node_id <= self.card_count

    def listen(self, node_id: int, port: int) -> ScifEndpoint:
        """Bind + listen on (node, port); identical call on either side."""
        self._check_node(node_id)
        key = (node_id, port)
        if key in self._listeners:
            raise ScifError(f"port {port} already bound on node {node_id}")
        endpoint = ScifEndpoint(self.clock, node_id, port)
        self._listeners[key] = endpoint
        return endpoint

    def connect(self, from_node: int, to_node: int, to_port: int) -> ScifEndpoint:
        """Connect to a listening endpoint; returns the connected local
        endpoint.  The listener side uses its listen endpoint directly
        (accept is implicit — adequate for single-connection agents)."""
        self._check_node(from_node)
        self._check_node(to_node)
        listener = self._listeners.get((to_node, to_port))
        if listener is None:
            raise ScifError(f"connection refused: no listener at {to_node}:{to_port}")
        if listener.connected:
            raise ScifError(f"listener {to_node}:{to_port} already connected")
        local = ScifEndpoint(self.clock, from_node, port=0)
        local._join(listener)
        # Connection setup costs one round trip.
        self.clock.advance(2 * message_latency(0))
        return local

    def unbind(self, node_id: int, port: int) -> None:
        endpoint = self._listeners.pop((node_id, port), None)
        if endpoint is None:
            raise ScifError(f"nothing bound at {node_id}:{port}")
        endpoint.close()

    def _check_node(self, node_id: int) -> None:
        if not self.valid_node(node_id):
            raise ScifError(
                f"no SCIF node {node_id} (host=0, cards=1..{self.card_count})"
            )
