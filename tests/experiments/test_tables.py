"""Integration tests: the table experiments reproduce the paper's shape."""

import pytest

from repro.experiments import table1, table2, table3


class TestTable1:
    def test_only_universal_row_is_total_power(self):
        result = table1.run()
        assert result.only_universal_is_total_power

    def test_phi_richest_rapl_narrowest(self):
        counts = table1.run().availability_counts
        assert counts["Xeon Phi"] > counts["NVML"] > counts["Blue Gene/Q"] > counts["RAPL"]

    def test_render_nonempty(self):
        assert "Xeon Phi" in table1.run().rendered


class TestTable2:
    def test_four_rows(self):
        result = table2.run()
        assert len(result.rows) == 4
        assert result.rows[0][0] == "Package (PKG)"

    def test_domain_names_in_paper_order(self):
        assert [row[0] for row in table2.run().rows] == [
            "Package (PKG)", "Power Plane 0 (PP0)", "Power Plane 1 (PP1)",
            "DRAM",
        ]

    def test_all_counters_live(self):
        assert all(table2.run().live_counters.values())

    def test_addresses_match_sdm(self):
        addresses = table2.run().msr_addresses
        assert addresses["pkg"] == 0x611
        assert addresses["dram"] == 0x619


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3.run()

    def test_runtime_constant_across_scales(self, result):
        runtimes = result.row("Application Runtime")
        assert all(r == pytest.approx(202.78, abs=0.2) for r in runtimes.values())

    def test_initialization_milliseconds_and_growing(self, result):
        init = result.row("Time for Initialization")
        assert 0.002 < init[32] < init[512] <= init[1024] < 0.005

    def test_collection_identical_at_all_scales(self, result):
        collection = result.row("Time for Collection")
        assert collection[32] == collection[512] == collection[1024]
        assert collection[32] == pytest.approx(0.39, abs=0.03)  # paper: 0.3871

    def test_finalize_jumps_at_1024(self, result):
        fin = result.row("Time for Finalize")
        assert fin[32] == pytest.approx(0.15, abs=0.02)   # paper: 0.1510
        assert fin[512] == pytest.approx(0.155, abs=0.02)  # paper: 0.1550
        assert fin[1024] == pytest.approx(0.33, abs=0.04)  # paper: 0.3347
        assert fin[1024] > 2.0 * fin[512]

    def test_total_under_half_percent(self, result):
        for report in result.reports.values():
            assert report.percent_of_runtime < 0.5  # paper: ~0.4 %

    def test_total_overhead_at_1k_near_paper(self, result):
        assert result.reports[1024].percent_of_runtime == pytest.approx(
            0.36, abs=0.15)

    def test_totals_match_paper_ordering(self, result):
        totals = result.row("Total Time for MonEQ")
        assert totals[32] < totals[512] < totals[1024]
        assert totals[1024] == pytest.approx(0.725, abs=0.05)  # paper: 0.7251
