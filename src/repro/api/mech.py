"""``repro.api.mech`` — vendor mechanisms as declared compositions.

The mechanism layer's supported types (spec, channel, freshness,
capability, source) plus the registry, and — new in v2 — the POSIX
identities a channel crossing is checked against:
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

# The mechanism module's Backend base lives in the session layer; load
# it first so the moneq <-> mech import cycle resolves from the side
# that works regardless of what the consumer imported before us.
import repro.core.moneq  # noqa: F401
from repro.host.permissions import ROOT, USER, Credentials
from repro.mech import (
    AccessChannel,
    CachePlan,
    CapabilityDecl,
    ChannelCache,
    ChannelCacheStats,
    FieldPlan,
    FreshnessModel,
    MechanismSpec,
    SensorSource,
    channel_cache_disabled,
    device_cache,
    mechanisms,
)
from repro.mech.mechanism import Mechanism

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
