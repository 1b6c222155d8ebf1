"""``repro chaos run`` stdout and the ``repro bench fleet`` gate.

``chaos run`` looks its scenario up in ``repro.packs.chaos_packs()`` and
runs it with ``repro.packs.execute_scenario``, and its stdout is a compatibility
contract — the summary lines below are the exact bytes the pre-pack
command printed (recorded from the legacy implementation), so these
are regression pins, not round-trips through the new code's own
formatting.  The fleet sweep's floors gate through ``repro bench fleet
--smoke --check``, the one bench verb; the retired bench verbs exit 2.
"""

import json
import subprocess
import sys
import warnings

import pytest

from repro import perfbench
from repro.__main__ import main as cli_main
from repro.perfbench import Bench

REPO_ROOT = __file__.rsplit("/tests/", 1)[0]

#: (argv tail, expected summary line) — recorded from the legacy
#: chaos runner; any byte of drift is a broken contract.
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


#: A canned smoke result of the ``fleet`` row, and its committed
#: baseline.
_CANNED_FLEET = {"wall_s": 0.05, "speedup_vs_scalar": 1000.0, "sites": 2,
                 "cache_reduction": 8.0, "byte_identical": True}


@pytest.fixture
def canned_fleet(monkeypatch, tmp_path):
    """Swap the ``fleet`` row's callable for a canned one (keeping the
    row's sizes and floors) over a temporary trajectory file."""
    calls = []
    result = dict(_CANNED_FLEET)

    def canned(**sizes):
        calls.append(sizes)
        return dict(result)

    row = perfbench.BENCHES["fleet"]
    monkeypatch.setitem(perfbench.BENCHES, "fleet", Bench(
        canned, row.full, row.smoke, row.floors, row.detail_floors))
    path = tmp_path / "BENCH_trajectory.json"
    path.write_text(json.dumps({"smoke": {"fleet": {
        **_CANNED_FLEET, "spread": 0.3}}}))
    monkeypatch.setattr(perfbench, "TRAJECTORY_PATH", str(path))
    return result, calls


def test_fleet_bench_check_passes_and_runs_the_smoke_sizes(canned_fleet,
                                                           capsys):
    _, calls = canned_fleet
    assert cli_main(["bench", "fleet", "--smoke", "--check"]) == 0
    assert calls == [perfbench.BENCHES["fleet"].smoke]
    out = capsys.readouterr().out
    assert out.startswith("[repro bench] smoke profile checked against")
    assert "fleet" in out and "1000.00x" in out


def test_fleet_sweep_table_is_byte_identical(canned_fleet, capsys):
    """The exact table ``repro bench fleet --smoke --check`` prints for
    the canned sweep (trailing cell padding included)."""
    assert cli_main(["bench", "fleet", "--smoke", "--check"]) == 0
    out = capsys.readouterr().out
    assert out.replace(perfbench.TRAJECTORY_PATH, "<trajectory>") == (
        "[repro bench] smoke profile checked against <trajectory>\n"
        "bench  wall     vs scalar  detail"
        "                                         \n"
        "-----  -------  ---------  "
        "-----------------------------------------------\n"
        "fleet  50.0 ms  1000.00x   "
        "sites=2, cache_reduction=8, byte_identical=True\n"
    )


def test_fleet_sweep_json_write_matches_legacy_bytes(canned_fleet,
                                                     capsys):
    """Recording the fleet row rewrites the trajectory in the legacy
    byte format: 2-space indent, sorted keys, trailing newline."""
    assert cli_main(["bench", "fleet", "--smoke"]) == 0
    capsys.readouterr()
    recorded = {"smoke": {"fleet": {**_CANNED_FLEET, "wall_s": 0.05,
                                    "spread": 0.0}}}
    legacy_bytes = json.dumps(recorded, indent=2, sort_keys=True) + "\n"
    path = perfbench.TRAJECTORY_PATH
    assert open(path, encoding="utf-8").read() == legacy_bytes


def test_fleet_sweep_floor_failures_still_gate(canned_fleet, capsys):
    """A slow sweep exits 1 naming the realtime floor."""
    result, _ = canned_fleet
    result["speedup_vs_scalar"] = 0.5
    assert cli_main(["bench", "fleet", "--smoke", "--check"]) == 1
    assert ("fleet: smoke speedup 0.500x below the 2x floor"
            in capsys.readouterr().err)


@pytest.mark.parametrize("change, message", [
    ({"cache_reduction": 4.0}, "cache_reduction 4.000x below the 5x floor"),
    ({"byte_identical": False}, "output bytes diverged"),
])
def test_fleet_ablation_failures_gate(canned_fleet, capsys, change,
                                      message):
    result, _ = canned_fleet
    result.update(change)
    assert cli_main(["bench", "fleet", "--smoke", "--check"]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fleet"],
    ["fleet", "sweep", "--smoke"],
    ["bench", "fleet", "--frobnicate"],
])
def test_fleet_bad_usage_exits_two(argv, capsys):
    assert cli_main(argv) == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bench", "perf", "--check"],
    ["exec", "bench"],
    ["service", "bench"],
    ["store", "bench"],
    ["bench", "launcher_mmps"],
    ["bench", "fleet", "no_such_bench", "--smoke"],
    ["report", "--no-cache"],
    ["pack", "run", "phi-micsmc", "--no-cache"],
    ["exec", "cache", "stats"],
])
def test_retired_bench_verbs_and_unknown_benches_exit_two(argv, capsys):
    assert cli_main(argv) == 2
    assert capsys.readouterr().err


def test_chaos_and_fleet_commands_raise_no_deprecation_warning(
        canned_fleet, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert cli_main(["chaos", "list"]) == 0
        assert cli_main(["bench", "fleet", "--smoke", "--check"]) == 0
    capsys.readouterr()
