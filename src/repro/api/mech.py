"""``repro.api.mech`` — vendor mechanisms as declared compositions.

The mechanism layer's supported types (spec, channel, freshness,
capability, source) plus :func:`mechanisms`, the catalog of all nine
declared vendor paths, and — new in v2 — the POSIX identities a channel
crossing is checked against:
:class:`~repro.host.permissions.Credentials` with the stock ``ROOT``
and ``USER`` pair, so callers can exercise the permission gate without
reaching into implementation modules.  The freshness-aware channel
cache (refresh-window hits skip the access-channel crossing,
byte-identically) is supported here too: :func:`device_cache`, the
cache each shared device owns, the :func:`channel_cache_disabled`
ablation guard, and the :class:`CachePlan` / :class:`FieldPlan`
declarations a source publishes.
"""

from __future__ import annotations

from repro.core.moneq.backends import mechanisms
from repro.host.permissions import ROOT, USER, Credentials
from repro.mech import (
    AccessChannel,
    CachePlan,
    CapabilityDecl,
    ChannelCache,
    ChannelCacheStats,
    FieldPlan,
    FreshnessModel,
    Mechanism,
    MechanismSpec,
    SensorSource,
    channel_cache_disabled,
    device_cache,
)

__all__ = [
    "ROOT",
    "USER",
    "AccessChannel",
    "CachePlan",
    "CapabilityDecl",
    "ChannelCache",
    "ChannelCacheStats",
    "Credentials",
    "FieldPlan",
    "FreshnessModel",
    "Mechanism",
    "MechanismSpec",
    "SensorSource",
    "channel_cache_disabled",
    "device_cache",
    "mechanisms",
]
