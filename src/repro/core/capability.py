"""The unified environmental-data taxonomy — the paper's Table I.

Table I compares what each platform can report, across five categories
(total power breakdown, temperature, main memory, processor, fans) plus
power limits.  The matrix is **derived**, not hand-maintained: each
platform's column is declared once as a
:class:`~repro.mech.capability_decl.CapabilityDecl` in the mechanism
layer, which also derives its :class:`PlatformCapabilities`; this
module lays those columns out exactly as the paper does.  The
benchmark then checks the paper's headline claims against the derived
matrix ("just about the only data point which is collectible on all of
these platforms is total power consumption").
"""

from __future__ import annotations

from repro.mech.capability_decl import (
    PLATFORM_DECLS,
    Availability,
    CapabilityRow,
    PlatformCapabilities,
    derive_capabilities,
)


#: Table I's row structure, in the paper's order.
TABLE1_ROWS: list[CapabilityRow] = [
    CapabilityRow("Total Power Consumption (Watts)", "Total"),
    CapabilityRow("Total Power Consumption (Watts)", "Voltage"),
    CapabilityRow("Total Power Consumption (Watts)", "Current"),
    CapabilityRow("Total Power Consumption (Watts)", "PCI Express"),
    CapabilityRow("Total Power Consumption (Watts)", "Main Memory"),
    CapabilityRow("Temperature", "Die"),
    CapabilityRow("Temperature", "DDR/GDDR"),
    CapabilityRow("Temperature", "Device"),
    CapabilityRow("Temperature", "Intake (Fan-In)"),
    CapabilityRow("Temperature", "Exhaust (Fan-Out)"),
    CapabilityRow("Main Memory", "Used"),
    CapabilityRow("Main Memory", "Free"),
    CapabilityRow("Main Memory", "Speed (kT/sec)"),
    CapabilityRow("Main Memory", "Frequency"),
    CapabilityRow("Main Memory", "Voltage"),
    CapabilityRow("Main Memory", "Clock Rate"),
    CapabilityRow("Processor", "Voltage"),
    CapabilityRow("Processor", "Frequency"),
    CapabilityRow("Processor", "Clock Rate"),
    CapabilityRow("Fans", "Speed (In RPM)"),
    CapabilityRow("Limits", "Get/Set Power Limit"),
]

#: Table I's column order.
PLATFORM_ORDER = ("Xeon Phi", "NVML", "Blue Gene/Q", "RAPL")


# ---------------------------------------------------------------------------
# Platform columns, derived from the mechanism layer's declarations.
# Each declaration mirrors what its simulator actually exposes; the
# unit tests cross-check notable cells against the simulator APIs
# (e.g. NVML has no voltage query; EMON has V and I).
# ---------------------------------------------------------------------------

_PLATFORMS = {
    name: derive_capabilities(decl) for name, decl in PLATFORM_DECLS.items()
}

XEON_PHI_CAPABILITIES = _PLATFORMS["Xeon Phi"]
NVML_CAPABILITIES = _PLATFORMS["NVML"]
BGQ_CAPABILITIES = _PLATFORMS["Blue Gene/Q"]
RAPL_CAPABILITIES = _PLATFORMS["RAPL"]


def platform_capabilities(platform: str) -> PlatformCapabilities:
    """One platform's Table I column, by name."""
    capabilities = _PLATFORMS.get(platform)
    if capabilities is None:
        raise KeyError(
            f"unknown platform {platform!r}; have {sorted(_PLATFORMS)}"
        )
    return capabilities


def capability_matrix() -> dict[str, PlatformCapabilities]:
    """Platform name -> capabilities, in Table I column order."""
    return {name: _PLATFORMS[name] for name in PLATFORM_ORDER}


def universal_rows() -> list[CapabilityRow]:
    """Rows available on *every* platform — the paper's conclusion says
    this is (essentially) just total power consumption."""
    matrix = capability_matrix()
    return [
        row for row in TABLE1_ROWS
        if all(matrix[p].cell(row) is Availability.AVAILABLE for p in PLATFORM_ORDER)
    ]


def render_capability_table() -> str:
    """ASCII rendering of Table I."""
    matrix = capability_matrix()
    item_width = max(len(row.item) for row in TABLE1_ROWS) + 2
    col_width = max(len(p) for p in PLATFORM_ORDER) + 2
    lines = [
        " " * item_width + "".join(p.ljust(col_width) for p in PLATFORM_ORDER)
    ]
    current_category = None
    for row in TABLE1_ROWS:
        if row.category != current_category:
            current_category = row.category
            lines.append(current_category)
        cells = "".join(
            matrix[p].cell(row).mark.ljust(col_width) for p in PLATFORM_ORDER
        )
        lines.append("  " + row.item.ljust(item_width - 2) + cells)
    return "\n".join(lines)
