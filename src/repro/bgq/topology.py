"""BG/Q machine topology.

"A rack of a BG/Q system consists of two midplanes, eight link cards,
and two service cards.  A midplane contains 16 node boards.  Each node
board holds 32 compute cards, for a total of 1,024 nodes per rack.
Each compute card has a single 18-core PowerPC A2 processor (16 cores
for applications, one core for system software, and one core inactive)
with four hardware threads per core ...  BG/Q thus has 16,384 cores per
rack."  (paper §II-A)

Location strings follow the IBM convention: ``R07-M1-N03-J12`` is rack
7, midplane 1, node board 3, compute card 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.bgq.domains import BGQ_DOMAINS, BgqDomain, domain_spec
from repro.devices.load import LoadBoard
from repro.devices.power import ComponentPowerModel
from repro.errors import ConfigError
from repro.sim.rng import RngRegistry

MIDPLANES_PER_RACK = 2
NODE_BOARDS_PER_MIDPLANE = 16
COMPUTE_CARDS_PER_NODE_BOARD = 32
LINK_CARDS_PER_RACK = 8
SERVICE_CARDS_PER_RACK = 2

CORES_PER_PROCESSOR = 18
APP_CORES_PER_PROCESSOR = 16
THREADS_PER_CORE = 4
NODES_PER_RACK = (
    MIDPLANES_PER_RACK * NODE_BOARDS_PER_MIDPLANE * COMPUTE_CARDS_PER_NODE_BOARD
)
APP_CORES_PER_RACK = NODES_PER_RACK * APP_CORES_PER_PROCESSOR


@dataclass(frozen=True)
class ComputeCard:
    """One compute node: a single 18-core A2 processor + DDR3."""

    location: str
    app_cores: int = APP_CORES_PER_PROCESSOR
    system_cores: int = 1
    inactive_cores: int = 1
    threads_per_core: int = THREADS_PER_CORE

    @property
    def total_cores(self) -> int:
        return self.app_cores + self.system_cores + self.inactive_cores


class NodeBoard:
    """32 compute cards sharing one set of domain rails.

    This is the EMON granularity: "it can only collect data at the node
    card level (every 32 nodes); this limitation is part of the design
    of the system and it is not possible to overcome in software."
    """

    def __init__(self, location: str, rng: RngRegistry):
        self.location = location
        self.rng = rng
        self.cards = [
            ComputeCard(f"{location}-J{j:02d}")
            for j in range(COMPUTE_CARDS_PER_NODE_BOARD)
        ]
        self.board = LoadBoard()
        self._models = {
            spec.domain: ComponentPowerModel(
                self.board, idle_w=spec.idle_w,
                dynamic_w={spec.component: spec.dynamic_w},
            )
            for spec in BGQ_DOMAINS
        }

    @property
    def node_count(self) -> int:
        return len(self.cards)

    def domain_power(self, domain: BgqDomain, t):
        """True DC power of one domain rail (W)."""
        return self._models[domain].power(t)

    def domain_voltage(self, domain: BgqDomain, t):
        """Rail voltage: nominal with utilization-proportional droop."""
        spec = domain_spec(domain)
        util = self.board.utilization(spec.component, t)
        return spec.nominal_v * (1.0 - spec.droop * util)

    def domain_current(self, domain: BgqDomain, t):
        """Rail current implied by power and voltage."""
        return self.domain_power(domain, t) / self.domain_voltage(domain, t)

    def total_power(self, t):
        """DC power of the whole node card — the top line of Figure 2."""
        total = self.domain_power(BGQ_DOMAINS[0].domain, t)
        for spec in BGQ_DOMAINS[1:]:
            total = total + self.domain_power(spec.domain, t)
        return total

    def schedule_key(self) -> Hashable:
        """A key two boards share only if they draw equal power at
        every instant.

        Every board shares the :data:`BGQ_DOMAINS` table, so its power
        depends only on its load board's schedule: the ordered
        ``(workload, t_start)`` placements.  A board with a parasitic
        signal gets a key of its own.
        """
        if self.board.parasitic:
            return ("parasitic", id(self))
        return tuple((id(placed.workload), placed.t_start)
                     for placed in self.board.scheduled)


def total_power_block(boards: Sequence[NodeBoard], t: float) -> np.ndarray:
    """``total_power(t)`` of each board, evaluated once per distinct
    :meth:`~NodeBoard.schedule_key` — all idle boards share one
    evaluation, as do the boards of one job partition."""
    shared: dict[Hashable, float] = {}
    out = np.empty(len(boards))
    for i, board in enumerate(boards):
        key = board.schedule_key()
        power = shared.get(key)
        if power is None:
            power = shared[key] = float(board.total_power(t))
        out[i] = power
    return out


@dataclass
class LinkCard:
    """Optical link card (sensors live in the environmental DB only)."""

    location: str


@dataclass
class ServiceCard:
    """Rack service card (control network + clock)."""

    location: str


class Midplane:
    """16 node boards plus shared infrastructure."""

    def __init__(self, location: str, rng: RngRegistry):
        self.location = location
        self.node_boards = [
            NodeBoard(f"{location}-N{n:02d}", rng.fork(f"N{n:02d}"))
            for n in range(NODE_BOARDS_PER_MIDPLANE)
        ]

    @property
    def node_count(self) -> int:
        return sum(board.node_count for board in self.node_boards)


class Rack:
    """Two midplanes, eight link cards, two service cards."""

    def __init__(self, index: int, rng: RngRegistry):
        self.index = index
        self.location = f"R{index:02d}"
        self.midplanes = [
            Midplane(f"{self.location}-M{m}", rng.fork(f"M{m}"))
            for m in range(MIDPLANES_PER_RACK)
        ]
        self.link_cards = [
            LinkCard(f"{self.location}-L{i}") for i in range(LINK_CARDS_PER_RACK)
        ]
        self.service_cards = [
            ServiceCard(f"{self.location}-S{i}") for i in range(SERVICE_CARDS_PER_RACK)
        ]

    @property
    def node_count(self) -> int:
        return sum(mp.node_count for mp in self.midplanes)

    @property
    def core_count(self) -> int:
        return self.node_count * APP_CORES_PER_PROCESSOR

    def node_boards(self) -> list[NodeBoard]:
        return [board for mp in self.midplanes for board in mp.node_boards]


def bgq_machine(racks: int, rng: RngRegistry | None = None) -> list[Rack]:
    """Build ``racks`` BG/Q racks with independent RNG namespaces."""
    if racks <= 0:
        raise ConfigError(f"rack count must be positive, got {racks}")
    registry = rng if rng is not None else RngRegistry()
    return [Rack(i, registry.fork(f"R{i:02d}")) for i in range(racks)]
