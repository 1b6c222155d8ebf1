"""The bench registry's one check and record path.

The real benches take seconds and are noise-dominated in CI, so the
gate's *logic* is tested against a stubbed registry: fresh speedups
inside the slack band pass, regressions beyond it fail, and the check
fails both ways — a bench with no committed baseline and a committed
baseline whose row is gone.  The committed trajectory itself is held
to the live table: exactly its rows in both profiles, every floor met.
"""

import json
import pathlib

import pytest

from repro import perfbench
from repro.__main__ import main as cli_main
from repro.perfbench import Bench

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _row(speed, floor=1.0, **detail):
    return Bench(lambda: {"wall_s": 0.001, "speedup_vs_scalar": speed,
                          **detail},
                 full={}, smoke={}, floors={"full": floor, "smoke": floor})


@pytest.fixture
def stub_benches(monkeypatch):
    rows = {"fast_path": _row(10.0), "steady_path": _row(1.0, floor=0.5)}
    monkeypatch.setattr(perfbench, "BENCHES", rows)
    return rows


def _commit(tmp_path, profile, entries):
    path = tmp_path / "BENCH_stub.json"
    path.write_text(json.dumps({profile: {
        name: {"wall_s": 0.001, "spread": 0.0, **entry}
        for name, entry in entries.items()}}))
    return str(path)


def test_within_tolerance_passes(tmp_path, stub_benches):
    path = _commit(tmp_path, "full", {
        "fast_path": {"speedup_vs_scalar": 12.0},
        "steady_path": {"speedup_vs_scalar": 1.1},
    })
    failures, results = perfbench.check(list(stub_benches), "full", path)
    assert failures == []
    assert results["fast_path"]["speedup_vs_scalar"] == 10.0


def test_regression_beyond_tolerance_fails(tmp_path, stub_benches):
    path = _commit(tmp_path, "full", {
        "fast_path": {"speedup_vs_scalar": 20.0},
    })
    failures, _ = perfbench.check(["fast_path"], "full", path)
    assert len(failures) == 1
    assert "fast_path" in failures[0]
    assert "20.000x" in failures[0] and "30%" in failures[0]


def test_smoke_slack_widens_with_the_committed_spread(tmp_path,
                                                      stub_benches):
    """smoke: min(90%, max(50%, 2 x spread)) below the median."""
    stub_benches["fast_path"] = _row(3.0)
    for spread, passes in ((0.4, True), (0.1, False), (0.99, True)):
        path = _commit(tmp_path, "smoke", {
            "fast_path": {"speedup_vs_scalar": 10.0, "spread": spread}})
        failures, _ = perfbench.check(["fast_path"], "smoke", path)
        assert (failures == []) is passes, (spread, failures)


def test_missing_bench_fails(tmp_path, stub_benches):
    path = _commit(tmp_path, "full", {
        "fast_path": {"speedup_vs_scalar": 10.0},
        "retired_path": {"speedup_vs_scalar": 2.0},
    })
    failures, _ = perfbench.check(["fast_path"], "full", path)
    assert failures == [f"retired_path: full baseline in {path} but no "
                        f"longer benched"]


def test_missing_baseline_fails(tmp_path, stub_benches):
    path = _commit(tmp_path, "full", {
        "fast_path": {"speedup_vs_scalar": 10.0},
    })
    failures, _ = perfbench.check(list(stub_benches), "full", path)
    assert failures == [f"steady_path: no committed full baseline in {path}"]
    # The other profile's baselines do not stand in.
    failures, _ = perfbench.check(["fast_path"], "smoke", path)
    assert failures == [f"fast_path: no committed smoke baseline in {path}"]


def test_absolute_floor_fails_naming_it(tmp_path, stub_benches):
    stub_benches["fast_path"] = _row(2.0, floor=3.0)
    path = _commit(tmp_path, "full", {
        "fast_path": {"speedup_vs_scalar": 2.0}})
    failures, _ = perfbench.check(["fast_path"], "full", path)
    assert failures == ["fast_path: full speedup 2.000x below the 3x floor"]


def test_detail_floor_and_byte_divergence_fail(tmp_path, stub_benches):
    stub_benches["fast_path"] = Bench(
        lambda: {"wall_s": 0.001, "speedup_vs_scalar": 10.0,
                 "cache_reduction": 4.0, "byte_identical": False},
        full={}, smoke={}, floors={"full": 1.0, "smoke": 1.0},
        detail_floors={"cache_reduction": 5.0})
    path = _commit(tmp_path, "full", {
        "fast_path": {"speedup_vs_scalar": 10.0}})
    failures, _ = perfbench.check(["fast_path"], "full", path)
    assert failures == [
        "fast_path: cache_reduction 4.000x below the 5x floor",
        "fast_path: output bytes diverged from the reference path",
    ]


def test_check_never_rewrites_the_committed_file(tmp_path, stub_benches):
    path = _commit(tmp_path, "full", {
        "fast_path": {"speedup_vs_scalar": 10.0},
    })
    before = open(path).read()
    perfbench.check(list(stub_benches), "full", path)
    assert open(path).read() == before


def test_cli_check_never_writes(tmp_path, monkeypatch, stub_benches,
                                capsys):
    path = tmp_path / "BENCH_trajectory.json"
    monkeypatch.setattr(perfbench, "TRAJECTORY_PATH", str(path))
    assert cli_main(["bench", "--smoke", "--check"]) == 1
    assert "no committed smoke baseline" in capsys.readouterr().err
    assert not path.exists()


def test_record_writes_medians_and_spread(tmp_path, monkeypatch,
                                          stub_benches):
    speeds = iter([4.0, 8.0, 5.0])
    stub_benches["fast_path"] = Bench(
        lambda: {"wall_s": 0.5, "speedup_vs_scalar": next(speeds),
                 "rows": 7},
        full={}, smoke={}, floors={"full": 1.0, "smoke": 1.0})
    path = _commit(tmp_path, "full", {
        "fast_path": {"speedup_vs_scalar": 9.0}})
    data = json.loads(pathlib.Path(path).read_text())
    data["smoke"] = {"steady_path": {"speedup_vs_scalar": 1.0},
                     "retired_path": {"speedup_vs_scalar": 1.0}}
    pathlib.Path(path).write_text(json.dumps(data))

    failures, entries = perfbench.record(["fast_path"], "smoke", path)
    assert failures == []
    written = json.loads(pathlib.Path(path).read_text())
    assert written["smoke"] == {
        "fast_path": {"wall_s": 0.5, "speedup_vs_scalar": 5.0,
                      "spread": 0.8, "rows": 7},
        "steady_path": {"speedup_vs_scalar": 1.0},
    }
    assert written["full"] == data["full"]  # the other profile is kept
    assert entries["fast_path"] == written["smoke"]["fast_path"]


def test_record_refuses_a_baseline_below_its_floor(tmp_path, stub_benches):
    stub_benches["fast_path"] = _row(0.5)
    path = tmp_path / "BENCH_stub.json"
    failures, _ = perfbench.record(["fast_path"], "full", str(path))
    assert failures == ["fast_path: full speedup 0.500x below the 1x floor"]
    assert not path.exists()


def test_paired_takes_the_median_per_pair_ratio(monkeypatch):
    """Reference and candidate alternate; a blip on one pair is dropped
    by the median rather than billed to one side."""
    walls = iter([1.0, 0.5,   # pair 1: 2x
                  3.0, 0.5,   # pair 2: a slow reference, 6x
                  1.0, 0.25,  # pair 3: 4x
                  ])
    calls = []
    monkeypatch.setattr(perfbench, "_wall",
                        lambda fn: (next(walls), fn()))
    timed = perfbench._paired(lambda: calls.append("ref") or "r",
                              lambda: calls.append("cand") or "c", 3)
    assert calls == ["ref", "cand"] * 3
    assert timed.ratio == 4.0
    assert (timed.reference_s, timed.candidate_s) == (1.0, 0.5)
    assert (timed.reference, timed.candidate) == ("r", "c")


def test_committed_trajectory_matches_current_suite():
    """BENCH_trajectory.json names exactly the registry's rows in both
    profiles (so --check can't silently skip one)."""
    committed = perfbench.load(str(REPO_ROOT / perfbench.TRAJECTORY_PATH))
    assert set(committed) == set(perfbench.PROFILES)
    for profile in perfbench.PROFILES:
        assert list(committed[profile]) == sorted(perfbench.BENCHES)


def test_committed_trajectory_meets_every_floor():
    committed = perfbench.load(str(REPO_ROOT / perfbench.TRAJECTORY_PATH))
    for profile, entries in committed.items():
        for name, entry in entries.items():
            assert perfbench.floor_failures(name, entry, profile) == []
            assert entry["spread"] >= 0.0
    assert committed["full"]["exec"]["tasks"] == 15


def test_only_the_trajectory_file_is_committed():
    stale = sorted(p.name for p in REPO_ROOT.glob("BENCH_*.json"))
    assert stale == [perfbench.TRAJECTORY_PATH]
