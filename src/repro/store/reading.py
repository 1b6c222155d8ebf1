"""The shared normalized sensor record.

Every vendor read path — BG/Q EMON and the environmental database's BPM
metering, RAPL, NVML, and the three Xeon Phi paths — historically leaked
its own tuple/dict shape into ``store`` and ``analysis`` consumers.  A
:class:`Reading` normalizes them to one record: *when* it was sampled,
*where* (the vendor location or device label), *which mechanism*
produced it, and the field → value mapping the mechanism reported.

The record is deliberately dumb: adapters at the edges (``EnvRecord``
in :mod:`repro.bgq.envdb`) translate legacy shapes without the storage
or analysis layers special-casing per-platform formats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass(frozen=True)
class Reading:
    """One normalized sensor record.

    Parameters
    ----------
    timestamp:
        Virtual time the values were sampled at (seconds).
    location:
        Vendor location string (``R00-M0-N00-BPM``) or device label
        (``mic0-daemon``, ``K20#0``).
    mechanism:
        The collection mechanism that produced the record — one of the
        ``mechanism`` label values in
        :data:`repro.obs.instruments.VENDOR_MECHANISMS`, or ``envdb``
        for environmental-database rows.
    values:
        Field name → float value, in the mechanism's column order.
    """

    timestamp: float
    location: str
    mechanism: str
    values: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.location:
            raise ConfigError("Reading needs a non-empty location")
        if not self.mechanism:
            raise ConfigError("Reading needs a non-empty mechanism")

    def value(self, name: str) -> float:
        """One field's value; raises :class:`ConfigError` when absent."""
        try:
            return self.values[name]
        except KeyError:
            raise ConfigError(
                f"reading at {self.location!r} has no field {name!r}; "
                f"have {sorted(self.values)}"
            ) from None

    def with_values(self, **values: float) -> "Reading":
        """A copy with extra/overridden fields (adapters use this)."""
        merged = dict(self.values)
        merged.update(values)
        return Reading(self.timestamp, self.location, self.mechanism, merged)
