"""Integration tests: the figure experiments reproduce the paper's
qualitative shapes (who wins, rough factors, where crossovers fall)."""

import numpy as np
import pytest

from repro.experiments import fig1, fig3, fig4, fig5, fig6, fig7, fig8
from repro.experiments import overheads, rapl_overflow


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return fig1.run()

    def test_idle_visible_before_and_after(self, result):
        assert result.idle.visible
        first, last = result.series.values[0], result.series.values[-1]
        assert first < result.idle.active_level * 0.6
        assert last < result.idle.active_level * 0.6

    def test_power_band_matches_figure(self, result):
        assert 700.0 < result.idle.idle_level < 900.0      # ~800 W shelf
        assert 1500.0 < result.idle.active_level < 1900.0  # ~1700 W plateau

    def test_coarse_sampling(self, result):
        assert result.samples < 20  # a handful of ~4-minute samples


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import fig2

        return fig2.run(duration_s=600.0)

    def test_seven_domains(self, result):
        assert len(result.domains) == 7

    def test_chip_core_dominates(self, result):
        chip = result.domains["chip_core"].mean()
        assert all(chip >= result.domains[d].mean() for d in result.domains.names)

    def test_total_matches_bpm_output(self, result):
        assert result.agreement_with_bpm.relative_difference < 0.05

    def test_no_idle_shelf(self, result):
        assert not result.idle_samples_present

    def test_many_more_samples_than_envdb(self, result):
        # 560 ms vs 240 s sampling: ~2 orders of magnitude more points.
        assert result.samples > 400


class TestFig2AtDefaultDuration:
    """The shape of the 1500 s run that EXPERIMENTS.md reports."""

    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import fig2

        return fig2.run()

    def test_seven_domains_chip_core_largest(self, result):
        assert len(result.domains) == 7
        chip = result.domains["chip_core"].mean()
        assert all(chip >= result.domains[d].mean() for d in result.domains.names)

    def test_total_matches_bpm_output_without_idle_shelf(self, result):
        assert result.agreement_with_bpm.relative_difference < 0.05
        assert not result.idle_samples_present


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3.run()

    def test_idle_shelf_on_both_ends(self, result):
        assert result.idle_head_w == pytest.approx(result.idle_tail_w, abs=1.0)
        assert result.idle_head_w < 10.0

    def test_plateau_in_band(self, result):
        assert 38.0 < result.plateau_w < 52.0

    def test_rhythmic_drop_about_5w(self, result):
        assert 3.0 < result.drop_depth_w < 7.0

    def test_tiny_spikes_present(self, result):
        assert 0.5 < result.spike_height_w < 4.0


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4.run()

    def test_levels_off_near_55w(self, result):
        assert 52.0 < result.level_w < 58.0

    def test_gradual_ramp_of_about_5s(self, result):
        assert 2.0 < result.time_to_level_s < 8.0

    def test_monotone_smoothed_rise(self, result):
        window = 10
        smooth = np.convolve(result.series.values, np.ones(window) / window,
                             mode="valid")
        assert smooth[0] < smooth[-1] - 5.0


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5.run()

    def test_datagen_phase_near_idle(self, result):
        assert result.datagen_mean_w < 60.0

    def test_dramatic_jump_to_compute(self, result):
        assert result.compute_mean_w > 2.0 * result.datagen_mean_w
        assert 120.0 < result.compute_mean_w < 150.0

    def test_temperature_steadily_rises(self, result):
        assert result.temp_end_c > result.temp_start_c + 10.0
        assert result.temp_monotone_fraction > 0.95


class TestFig6:
    def test_all_three_paths_reachable(self):
        result = fig6.run()
        assert all(result.path_exists.values())

    def test_in_band_costlier_than_micras(self):
        result = fig6.run()
        assert result.path_costs["in-band"] > 100 * result.path_costs["micras"]

    def test_scif_symmetry(self):
        assert fig6.run().symmetric_scif


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7.run()

    def test_api_arm_higher(self, result):
        assert result.api_box.median > result.daemon_box.median

    def test_difference_slight_but_significant(self, result):
        diff = result.ttest.mean_difference
        assert 0.5 < diff < 4.0  # slight
        assert result.ttest.significant(alpha=0.01)

    def test_boxes_in_figure_band(self, result):
        # Figure 7's axis spans ~111-119 W.
        for box in (result.api_box, result.daemon_box):
            assert 109.0 < box.median < 119.0


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8.run(cards=128)

    def test_datagen_plateau_near_14kw(self, result):
        assert 13_000.0 < result.datagen_mean_w < 16_000.0

    def test_compute_plateau_near_25kw(self, result):
        assert 22_000.0 < result.compute_mean_w < 27_000.0

    def test_default_run_sums_128_cards(self):
        assert fig8.run().cards == 128

    def test_jump_at_100s(self, result):
        before = result.series.between(90.0, 98.0).mean()
        after = result.series.between(result.compute_start_s + 5.0,
                                      result.compute_start_s + 25.0).mean()
        assert after > before * 1.5


class TestOverheads:
    @pytest.fixture(scope="class")
    def result(self):
        return overheads.run()

    def test_paper_per_query_values(self, result):
        costs = result.costs
        assert costs["bgq-emon"].per_query_s == pytest.approx(1.10e-3, rel=0.02)
        assert costs["rapl-msr"].per_query_s == pytest.approx(0.03e-3, rel=0.02)
        assert costs["nvml"].per_query_s == pytest.approx(1.3e-3, rel=0.05)
        assert costs["phi-sysmgmt"].per_query_s == pytest.approx(14.2e-3, rel=0.02)
        assert costs["phi-micras"].per_query_s == pytest.approx(0.04e-3, rel=0.02)

    def test_ordering_matches_paper(self, result):
        assert result.ordering() == [
            "rapl-msr", "phi-micras", "bgq-emon", "nvml", "phi-sysmgmt"
        ]

    def test_duty_overheads(self, result):
        assert result.costs["bgq-emon"].overhead_percent == pytest.approx(0.196, rel=0.05)
        assert result.costs["nvml"].overhead_percent == pytest.approx(1.3, rel=0.05)
        assert result.costs["phi-sysmgmt"].overhead_percent == pytest.approx(14.2, rel=0.02)


class TestRaplOverflow:
    @pytest.fixture(scope="class")
    def result(self):
        return rapl_overflow.run()

    def test_wrap_period_near_65s_at_1kw(self, result):
        assert result.wrap_period_s == pytest.approx(65.536, rel=0.01)

    def test_accurate_below_wrap(self, result):
        for point in result.points:
            if point.interval_s <= 65.0:
                assert point.relative_error < 0.01

    def test_erroneous_above_wrap(self, result):
        bad = [p for p in result.points if p.interval_s >= 70.0]
        assert bad and all(p.relative_error > 0.25 for p in bad)

    def test_max_safe_interval_near_60s(self, result):
        assert 60.0 <= result.max_safe_interval() <= 65.536
