"""Mechanism declarations: one vendor collection path, as data.

A :class:`MechanismSpec` is the static quarter-composition the paper's
comparison runs on — channel + freshness + capability + field list —
with no device attached.  The nine vendor paths are declared where
their compositions live, as one constant mapping in
:mod:`repro.core.moneq.backends`; consumers read it through
``mechanisms()`` (``repro mech list``, the service's ``/v2/mech``, the
capability property tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.mech.capability_decl import CapabilityDecl
from repro.mech.channel import AccessChannel
from repro.mech.freshness import FreshnessModel


@dataclass(frozen=True)
class MechanismSpec:
    """One declared vendor path: everything but the live device."""

    name: str
    platform: str
    channel: AccessChannel
    freshness: FreshnessModel
    capability: CapabilityDecl
    #: Output field names, in column order — the property suite pins
    #: these to the keys ``read_at`` actually returns.
    fields: tuple[str, ...]
    #: Channel exchanges per collection tick (one MSR read per RAPL
    #: domain, one IPMB round trip per SMC sensor, ...).
    queries_per_read: int = 1
    summary: str = ""

    def __post_init__(self):
        if not self.fields:
            raise ConfigError(f"mechanism {self.name!r} declares no fields")
        if len(set(self.fields)) != len(self.fields):
            raise ConfigError(f"mechanism {self.name!r} has duplicate fields")
        if self.queries_per_read < 1:
            raise ConfigError(
                f"mechanism {self.name!r} needs >= 1 queries per read, "
                f"got {self.queries_per_read}"
            )
        if self.capability.platform != self.platform:
            raise ConfigError(
                f"mechanism {self.name!r} is on platform {self.platform!r} "
                f"but declares {self.capability.platform!r} capabilities"
            )

    @property
    def min_interval_s(self) -> float:
        """Derived hardware floor on the polling interval."""
        return self.freshness.min_interval_s

    @property
    def read_latency_s(self) -> float:
        """Charged cost of one full collection tick."""
        return self.channel.latency_for(self.queries_per_read)
