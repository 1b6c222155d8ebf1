"""Oracle test: the Table I matrices *derived* from the mechanism
layer's :class:`CapabilityDecl`s must equal the hand-maintained literal
matrices they replaced, cell for cell.

The expected values below are a verbatim copy of the pre-refactor
``repro.core.capability`` literals — the table the paper-claims and
ground-truth suites were validated against.  If a declaration drifts,
this test names the exact cell.
"""

from repro.core.capability import (
    PLATFORM_ORDER,
    TABLE1_ROWS,
    PlatformCapabilities,
    capability_matrix,
    platform_capabilities,
    render_capability_table,
)
from repro.mech.capability_decl import _keys

EXPECTED_XEON_PHI = PlatformCapabilities(
    platform="Xeon Phi",
    available=_keys(
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

EXPECTED_NVML = PlatformCapabilities(
    platform="NVML",
    available=_keys(
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

EXPECTED_BGQ = PlatformCapabilities(
    platform="Blue Gene/Q",
    available=_keys(
        ("Total Power Consumption (Watts)", "Total"),
        ("Total Power Consumption (Watts)", "Voltage"),
        ("Total Power Consumption (Watts)", "Current"),
        ("Total Power Consumption (Watts)", "PCI Express"),
        ("Total Power Consumption (Watts)", "Main Memory"),
        ("Main Memory", "Voltage"),
        ("Processor", "Voltage"),
    ),
    # Water-cooled node boards: no airflow sensors at the device level.
    not_applicable=_keys(
        ("Temperature", "Intake (Fan-In)"),
        ("Temperature", "Exhaust (Fan-Out)"),
        ("Fans", "Speed (In RPM)"),
    ),
)

EXPECTED_RAPL = PlatformCapabilities(
    platform="RAPL",
    available=_keys(
        ("Total Power Consumption (Watts)", "Total"),  # socket scope
        ("Total Power Consumption (Watts)", "Main Memory"),  # DRAM domain
        ("Limits", "Get/Set Power Limit"),
    ),
    # A socket has no PCIe rail of its own nor airflow sensors.
    not_applicable=_keys(
        ("Total Power Consumption (Watts)", "PCI Express"),
        ("Temperature", "Intake (Fan-In)"),
        ("Temperature", "Exhaust (Fan-Out)"),
        ("Fans", "Speed (In RPM)"),
    ),
)

EXPECTED = {
    "Xeon Phi": EXPECTED_XEON_PHI,
    "NVML": EXPECTED_NVML,
    "Blue Gene/Q": EXPECTED_BGQ,
    "RAPL": EXPECTED_RAPL,
}


class TestDerivedMatrixMatchesOracle:
    def test_every_cell(self):
        matrix = capability_matrix()
        for platform in PLATFORM_ORDER:
            derived, expected = matrix[platform], EXPECTED[platform]
            for row in TABLE1_ROWS:
                assert derived.cell(row) is expected.cell(row), (
                    f"{platform} / {row.key}: derived "
                    f"{derived.cell(row).value}, hand-maintained table had "
                    f"{expected.cell(row).value}"
                )

    def test_whole_columns_equal(self):
        for platform in PLATFORM_ORDER:
            assert capability_matrix()[platform] == EXPECTED[platform]

    def test_lookup_by_name(self):
        for platform in PLATFORM_ORDER:
            assert platform_capabilities(platform) == EXPECTED[platform]

    def test_unknown_platform_raises(self):
        import pytest

        with pytest.raises(KeyError):
            platform_capabilities("Cray XC40")

    def test_rendered_table_mentions_every_platform(self):
        rendered = render_capability_table()
        for platform in PLATFORM_ORDER:
            assert platform in rendered
