"""Capability declarations: what each platform can report (Table I).

This module is **pure data** (no repro imports beyond errors): the
declarations, the column type :class:`PlatformCapabilities` and its
derivation, so a mechanism reports its own column and the capability
matrix in :mod:`repro.core.capability` renders it without the mechanism
layer importing the table layer back.  Rows are ``(category, item)``
pairs in the paper's vocabulary; anything not declared available or
N/A renders as unavailable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class CapabilityDecl:
    """One platform's Table I column, declared as row pairs."""

    platform: str
    available: tuple[tuple[str, str], ...]
    not_applicable: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        overlap = set(self.available) & set(self.not_applicable)
        if overlap:
            raise ConfigError(
                f"{self.platform}: rows declared both available and "
                f"not-applicable: {sorted(overlap)}"
            )

    @property
    def capability_count(self) -> int:
        """Number of Table I data points the platform can report."""
        return len(self.available)


class Availability(enum.Enum):
    """One cell of Table I."""

    AVAILABLE = "yes"
    UNAVAILABLE = "no"
    NOT_APPLICABLE = "n/a"

    @property
    def mark(self) -> str:
        return {"yes": "+", "no": "-", "n/a": "N/A"}[self.value]


@dataclass(frozen=True)
class CapabilityRow:
    """(category, item) identifying one Table I row."""

    category: str
    item: str

    @property
    def key(self) -> str:
        return f"{self.category}/{self.item}"


@dataclass(frozen=True)
class PlatformCapabilities:
    """One platform's column: row key -> availability.

    Rows not mentioned default to UNAVAILABLE, so adapters only list
    what they *can* do (plus explicit N/A rows for data that makes no
    sense on the platform, e.g. fans on a water-cooled BG/Q).
    """

    platform: str
    available: frozenset[str]
    not_applicable: frozenset[str] = frozenset()

    def cell(self, row: CapabilityRow) -> Availability:
        if row.key in self.not_applicable:
            return Availability.NOT_APPLICABLE
        if row.key in self.available:
            return Availability.AVAILABLE
        return Availability.UNAVAILABLE


def _keys(*pairs: tuple[str, str]) -> frozenset[str]:
    return frozenset(CapabilityRow(c, i).key for c, i in pairs)


def derive_capabilities(decl: CapabilityDecl) -> PlatformCapabilities:
    """One Table I column from its declaration."""
    return PlatformCapabilities(
        platform=decl.platform,
        available=_keys(*decl.available),
        not_applicable=_keys(*decl.not_applicable),
    )


XEON_PHI_DECL = CapabilityDecl(
    platform="Xeon Phi",
    available=(
        ("Total Power Consumption (Watts)", "Total"),
        ("Total Power Consumption (Watts)", "Voltage"),
        ("Total Power Consumption (Watts)", "Current"),
        ("Total Power Consumption (Watts)", "PCI Express"),
        ("Total Power Consumption (Watts)", "Main Memory"),
        ("Temperature", "Die"),
        ("Temperature", "DDR/GDDR"),
        ("Temperature", "Device"),
        ("Temperature", "Intake (Fan-In)"),
        ("Temperature", "Exhaust (Fan-Out)"),
        ("Main Memory", "Used"),
        ("Main Memory", "Free"),
        ("Main Memory", "Speed (kT/sec)"),
        ("Main Memory", "Frequency"),
        ("Main Memory", "Voltage"),
        ("Main Memory", "Clock Rate"),
        ("Processor", "Voltage"),
        ("Processor", "Frequency"),
        ("Processor", "Clock Rate"),
        ("Fans", "Speed (In RPM)"),
        ("Limits", "Get/Set Power Limit"),
    ),
)

NVML_DECL = CapabilityDecl(
    platform="NVML",
    available=(
        ("Total Power Consumption (Watts)", "Total"),  # whole board only
        ("Temperature", "Die"),
        ("Temperature", "Device"),
        ("Main Memory", "Used"),
        ("Main Memory", "Free"),
        ("Main Memory", "Frequency"),
        ("Main Memory", "Clock Rate"),
        ("Processor", "Frequency"),
        ("Processor", "Clock Rate"),
        ("Fans", "Speed (In RPM)"),
        ("Limits", "Get/Set Power Limit"),
    ),
)

BGQ_DECL = CapabilityDecl(
    platform="Blue Gene/Q",
    available=(
        ("Total Power Consumption (Watts)", "Total"),
        ("Total Power Consumption (Watts)", "Voltage"),
        ("Total Power Consumption (Watts)", "Current"),
        ("Total Power Consumption (Watts)", "PCI Express"),
        ("Total Power Consumption (Watts)", "Main Memory"),
        ("Main Memory", "Voltage"),
        ("Processor", "Voltage"),
    ),
    # Water-cooled node boards: no airflow sensors at the device level.
    not_applicable=(
        ("Temperature", "Intake (Fan-In)"),
        ("Temperature", "Exhaust (Fan-Out)"),
        ("Fans", "Speed (In RPM)"),
    ),
)

RAPL_DECL = CapabilityDecl(
    platform="RAPL",
    available=(
        ("Total Power Consumption (Watts)", "Total"),  # socket scope
        ("Total Power Consumption (Watts)", "Main Memory"),  # DRAM domain
        ("Limits", "Get/Set Power Limit"),
    ),
    # A socket has no PCIe rail of its own nor airflow sensors.
    not_applicable=(
        ("Total Power Consumption (Watts)", "PCI Express"),
        ("Temperature", "Intake (Fan-In)"),
        ("Temperature", "Exhaust (Fan-Out)"),
        ("Fans", "Speed (In RPM)"),
    ),
)

#: Platform name -> column declaration, in Table I column order.
PLATFORM_DECLS: dict[str, CapabilityDecl] = {
    decl.platform: decl
    for decl in (XEON_PHI_DECL, NVML_DECL, BGQ_DECL, RAPL_DECL)
}
