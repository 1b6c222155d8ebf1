"""Fleet sweeps, the cache ablation, and the ``fleet`` bench row's shape."""

import pathlib

import pytest

from repro import perfbench
from repro.fleet import build_fleet, cache_ablation, fleet_sweep
from repro.fleet.sweep import FleetSweepReport


def test_fleet_sweep_report_accounts_one_horizon():
    report = fleet_sweep(n_sites=2, racks=2, duration_s=60.0)
    assert report.sites == 2 and report.racks == 2
    assert report.sweeps == 2  # one 60 s poll per site
    # 2 racks x 32 BPMs x 4 rows, per site.
    assert report.records == 2 * 2 * 32 * 4
    assert report.dropped == 0 and report.reshards == {}
    assert report.rollup_windows == 1  # records all land on the t=60 poll
    assert report.realtime_factor > 0
    line = report.summary_line()
    assert line.startswith("[repro fleet sweep] sites=2 racks=2")
    assert "records=512" in line and "realtime_x=" in line


def test_fleet_sweep_reuses_a_prebuilt_fleet():
    fleet = build_fleet(n_sites=1, racks=1, poll_interval_s=60.0)
    fleet.advance_to(65.0)
    before = fleet.records_ingested
    report = fleet_sweep(fleet=fleet, duration_s=120.0)
    # Only the new horizon's records are attributed to this sweep:
    # the t=60 poll already ran, so just t=120 fires here.
    assert report.records == fleet.records_ingested - before
    assert report.sweeps == 1


def test_fleet_sweep_determinism_modulo_wall_clock():
    a = fleet_sweep(n_sites=2, racks=1, duration_s=60.0)
    b = fleet_sweep(n_sites=2, racks=1, duration_s=60.0)
    keys = ("sites", "racks", "sweeps", "records", "dropped",
            "shards_by_site", "rollup_windows")
    assert {k: getattr(a, k) for k in keys} == \
        {k: getattr(b, k) for k in keys}


def test_realtime_factor_handles_zero_wall():
    report = FleetSweepReport(
        sites=1, racks=1, duration_s=60.0, wall_s=0.0, sweeps=1,
        records=1, dropped=0, reshards={}, shards_by_site={"site00": 1},
        rollup_windows=1)
    assert report.realtime_factor == float("inf")


def test_cache_ablation_cuts_crossings_and_stays_byte_identical():
    result = cache_ablation(consumers=4, ticks=60)
    assert result["byte_identical"] is True
    # K consumers sharing one device at the min interval: the first
    # pays the crossing, the other K-1 hit.
    assert result["hit_rate"] == pytest.approx(3 / 4)
    assert result["crossings_reduction"] == pytest.approx(4.0)
    assert result["crossings_uncached"] == \
        result["crossings_cached"] * result["crossings_reduction"]


def test_fleet_bench_smoke_writes_committed_shape():
    """The ``fleet`` row's live smoke run carries exactly the keys its
    committed trajectory entry does, and meets the row's floors."""
    row = perfbench.BENCHES["fleet"]
    result = row.measure("smoke")
    committed = perfbench.load(str(
        pathlib.Path(__file__).resolve().parents[2]
        / perfbench.TRAJECTORY_PATH))
    assert set(result) | {"spread"} == set(committed["smoke"]["fleet"])
    assert perfbench.floor_failures("fleet", result, "smoke") == []
    assert result["byte_identical"] is True
    assert result["cache_reduction"] >= row.detail_floors["cache_reduction"]
    assert result["sites"] == 2  # smoke never runs the 10x-Mira profile
