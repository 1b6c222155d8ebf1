"""``repro.mech`` — the composable mechanism layer.

The paper's core observation is that four very different vendor
collection paths share one measurable shape: a sensor source behind an
access channel with a query latency, a minimum interval, a freshness
model and a capability set.  This package expresses that shape once:

* :class:`~repro.mech.source.SensorSource` — columnar device sampling;
* :class:`~repro.mech.channel.AccessChannel` — per-query latency,
  permission requirement, wire quantization, obs instrumentation;
* :class:`~repro.mech.freshness.FreshnessModel` — validated derivation
  of the minimum polling interval;
* :class:`~repro.mech.capability_decl.CapabilityDecl` — Table I columns,
  from which :mod:`repro.core.capability` derives its matrices;
* :class:`~repro.mech.mechanism.Mechanism` — the generic composition
  with the single scalar ``read_at`` / vectorized ``read_block``;
* :mod:`~repro.mech.registry` — every declared path, inspectable via
  ``repro mech list``.

``Mechanism`` is exported lazily (PEP 562): it subclasses the MonEQ
``Backend``, whose module derives capabilities from this package, and
eager import would cycle.
"""

from __future__ import annotations

from repro.mech.cache import (
    CachePlan,
    ChannelCache,
    ChannelCacheStats,
    FieldPlan,
    channel_cache_disabled,
    device_cache,
)
from repro.mech.capability_decl import PLATFORM_DECLS, CapabilityDecl
from repro.mech.channel import MILLI_UNITS, AccessChannel, Quantization
from repro.mech.freshness import FreshnessKind, FreshnessModel
from repro.mech.registry import MechanismSpec, get, mechanisms, register
from repro.mech.source import (
    CounterSource,
    SensorSource,
    consecutive_deltas,
    empty_block,
)

__all__ = [
    "AccessChannel",
    "Quantization",
    "MILLI_UNITS",
    "FreshnessModel",
    "FreshnessKind",
    "CapabilityDecl",
    "PLATFORM_DECLS",
    "SensorSource",
    "CounterSource",
    "empty_block",
    "consecutive_deltas",
    "MechanismSpec",
    "register",
    "get",
    "mechanisms",
    "Mechanism",
    "ChannelCache",
    "ChannelCacheStats",
    "CachePlan",
    "FieldPlan",
    "channel_cache_disabled",
    "device_cache",
]


def __getattr__(name: str):
    if name == "Mechanism":
        from repro.mech.mechanism import Mechanism

        return Mechanism
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
