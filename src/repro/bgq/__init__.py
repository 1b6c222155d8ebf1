"""IBM Blue Gene/Q simulator.

Models the two BG/Q collection mechanisms the paper contrasts:

* the **environmental database** — site-wide polling of rack sensors
  (BPM power in both directions, coolant, fans, temperatures) every
  60-1800 s (about 4 minutes in practice), stored with timestamp and
  location in a relational store; idle periods before/after a job are
  visible (Figure 1), but resolution is coarse and a faster poll "would
  exceed the server's processing capacity";
* the **EMON API** — on-node access to the 7 power domains' voltage and
  current at node-card (32-node) granularity, ~1.10 ms per query
  (~0.19 % overhead), returning "the oldest generation of power data",
  with domains not sampled at the same instant (Figure 2).
"""

from repro.bgq.domains import BGQ_DOMAINS, BgqDomain, DomainSpec
from repro.bgq.topology import (
    ComputeCard,
    Midplane,
    NodeBoard,
    Rack,
    bgq_machine,
)
from repro.bgq.bpm import BulkPowerModule
from repro.bgq.emon import EMON_QUERY_LATENCY_S, EmonInterface, EmonReading
from repro.bgq.envdb import EnvironmentalDatabase
from repro.bgq.machine import BgqMachine, MIRA_RACKS

__all__ = [
    "BgqDomain",
    "DomainSpec",
    "BGQ_DOMAINS",
    "Rack",
    "Midplane",
    "NodeBoard",
    "ComputeCard",
    "bgq_machine",
    "BulkPowerModule",
    "EmonInterface",
    "EmonReading",
    "EMON_QUERY_LATENCY_S",
    "EnvironmentalDatabase",
    "BgqMachine",
    "MIRA_RACKS",
]
