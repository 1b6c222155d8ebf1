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
* :class:`~repro.mech.registry.MechanismSpec` — one declared vendor
  path, everything but the live device;
* :class:`~repro.mech.mechanism.Backend` — the MonEQ backend protocol,
  and :class:`~repro.mech.mechanism.Mechanism`, the generic composition
  that implements it with the single scalar ``read_at`` / vectorized
  ``read_block``.

The nine declared vendor paths live with their compositions in
:mod:`repro.core.moneq.backends` (``mechanisms()``, ``repro mech
list``).  Imports run one way: MonEQ imports this package, never the
reverse.
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
from repro.mech.mechanism import Backend, Mechanism
from repro.mech.registry import MechanismSpec
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
    "Backend",
    "Mechanism",
    "ChannelCache",
    "ChannelCacheStats",
    "CachePlan",
    "FieldPlan",
    "channel_cache_disabled",
    "device_cache",
]
