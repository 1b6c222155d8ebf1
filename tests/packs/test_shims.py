"""``repro chaos run`` and ``repro fleet sweep``: byte-identical stdout.

Both commands call their public runners (``repro.chaos.run_scenario``
and ``repro.fleet.fleet_bench``) straight from the command table, and
their stdout is a compatibility contract — the summary lines and
tables below are the exact bytes the pre-pack commands printed
(recorded from the legacy implementations), so these are regression
pins, not round-trips through the new code's own formatting.
"""

import subprocess
import sys
import warnings

import pytest

from repro.__main__ import main as cli_main

REPO_ROOT = __file__.rsplit("/tests/", 1)[0]

#: (argv tail, expected summary line) — recorded from the legacy
#: ``run_scenario`` path; any byte of drift is a broken contract.
CHAOS_GOLDENS = [
    (["bus_noise", "--seed", "7"],
     "[repro chaos run] scenario=bus_noise seed=7 interval_s=0.560 "
     "ticks=21 faults=5 recovered=5 dark=0 retries=5 backoff_s=0.112334 "
     "breaker_opens=0 stale=0"),
    (["bmc_dark", "--seed", "805381"],
     "[repro chaos run] scenario=bmc_dark seed=805381 interval_s=0.560 "
     "ticks=21 faults=4 recovered=0 dark=13 retries=8 backoff_s=0.262456 "
     "breaker_opens=2 stale=0"),
    (["daemon_wedge", "--seed", "805381"],
     "[repro chaos run] scenario=daemon_wedge seed=805381 "
     "interval_s=0.560 ticks=21 faults=13 recovered=0 dark=0 retries=0 "
     "backoff_s=0.000000 breaker_opens=0 stale=13"),
    (["bus_noise", "--seed", "11", "--duration", "6", "--rate", "0.3"],
     "[repro chaos run] scenario=bus_noise seed=11 interval_s=0.560 "
     "ticks=10 faults=7 recovered=7 dark=0 retries=8 backoff_s=0.194979 "
     "breaker_opens=0 stale=0"),
]


@pytest.mark.parametrize("argv, golden", CHAOS_GOLDENS,
                         ids=[" ".join(argv) for argv, _ in CHAOS_GOLDENS])
def test_chaos_summary_lines_are_byte_identical(argv, golden, capsys):
    assert cli_main(["chaos", "run", *argv]) == 0
    out = capsys.readouterr().out
    assert out.rstrip("\n").splitlines()[-1] == golden


def test_chaos_full_stdout_golden_in_a_fresh_process():
    """The whole chaos stdout — deltas header, metric families, summary
    — pinned byte for byte from a process with virgin counters."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "chaos", "run", "bus_noise",
         "--seed", "7"],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": f"{REPO_ROOT}/src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "# no collector errors (every fault recovered)\n"
        'repro_chaos_faults_injected_total{mechanism="ipmb",'
        'kind="ipmb_drop"} 5\n'
        'repro_retry_attempts_total{mechanism="ipmb"} 5\n'
        'repro_retry_backoff_seconds_total{mechanism="ipmb"} '
        "0.11233358588285475\n"
        "[repro chaos run] scenario=bus_noise seed=7 interval_s=0.560 "
        "ticks=21 faults=5 recovered=5 dark=0 retries=5 "
        "backoff_s=0.112334 breaker_opens=0 stale=0\n"
    )


def test_chaos_unknown_scenario_keeps_the_legacy_message(capsys):
    assert cli_main(["chaos", "run", "no_such_scenario"]) == 2
    err = capsys.readouterr().err
    assert ("chaos run: unknown chaos scenario 'no_such_scenario'; "
            "have ['bmc_dark', 'bus_noise', 'daemon_wedge']") in err


#: The canned fleet_bench results the table golden below renders.
_CANNED_FLEET = {
    "fleet_sweep": {"wall_s": 1.25, "speedup_vs_scalar": 48.0,
                    "sites": 2, "racks": 4, "sweeps": 4, "records": 1024,
                    "dropped": 0, "reshards": 1, "shards": 6,
                    "rollup_windows": 3},
    "cache_ablation": {"hit_rate": 0.875, "crossings_uncached": 3200,
                       "crossings_cached": 400,
                       "crossings_reduction": 8.0, "byte_identical": True},
}


@pytest.fixture
def canned_fleet_bench(monkeypatch):
    calls = []

    def canned(json_path=None, smoke=False):
        calls.append((json_path, smoke))
        return _CANNED_FLEET

    import repro.fleet

    monkeypatch.setattr(repro.fleet, "fleet_bench", canned)
    return calls


def test_fleet_sweep_table_is_byte_identical(canned_fleet_bench, capsys):
    """The exact table the legacy ``fleet sweep`` command printed for
    these results, rebuilt row for row as the legacy code built it."""
    from repro.analysis.tables import format_table

    rows = [(f"sweep.{key}", f"{value:g}")
            for key, value in _CANNED_FLEET["fleet_sweep"].items()]
    rows += [(f"cache.{key}",
              str(value) if isinstance(value, bool) else f"{value:g}")
             for key, value in _CANNED_FLEET["cache_ablation"].items()]
    legacy_table = format_table(
        ("metric", "value"), rows,
        title="[repro fleet sweep] smoke profile, nothing written")

    assert cli_main(["fleet", "sweep", "--smoke"]) == 0
    captured = capsys.readouterr()
    assert captured.out == legacy_table + "\n"
    assert canned_fleet_bench == [(None, True)]  # the CLI owns file writes


def test_fleet_sweep_json_write_matches_legacy_bytes(
        canned_fleet_bench, tmp_path, capsys):
    import json

    json_path = tmp_path / "fleet.json"
    assert cli_main(["fleet", "sweep", "--smoke",
                     "--json", str(json_path)]) == 0
    capsys.readouterr()
    legacy_bytes = (json.dumps(_CANNED_FLEET, indent=2, sort_keys=True)
                    + "\n")
    assert json_path.read_text(encoding="utf-8") == legacy_bytes


def test_fleet_sweep_floor_failures_still_gate(monkeypatch, capsys):
    import repro.fleet

    slow = {"fleet_sweep": {**_CANNED_FLEET["fleet_sweep"],
                            "speedup_vs_scalar": 0.5},
            "cache_ablation": _CANNED_FLEET["cache_ablation"]}
    monkeypatch.setattr(repro.fleet, "fleet_bench",
                        lambda json_path=None, smoke=False: slow)
    assert cli_main(["fleet", "sweep", "--smoke"]) == 1
    assert "realtime factor" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fleet"],
    ["fleet", "sweep", "--json"],
    ["fleet", "sweep", "--frobnicate"],
])
def test_fleet_bad_usage_exits_two(argv, capsys):
    assert cli_main(argv) == 2
    assert capsys.readouterr().err


def test_chaos_and_fleet_commands_raise_no_deprecation_warning(
        canned_fleet_bench, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert cli_main(["chaos", "list"]) == 0
        assert cli_main(["fleet", "sweep", "--smoke"]) == 0
    capsys.readouterr()
