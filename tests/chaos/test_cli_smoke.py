"""Tier-1 smoke for ``repro chaos``: the CLI exits cleanly and its
summary line is stable for a given (scenario, seed)."""

import pytest

from repro.__main__ import main as cli_main


def _last_line(capsys) -> str:
    out = capsys.readouterr().out
    return out.rstrip("\n").splitlines()[-1]


def test_chaos_run_exits_zero_with_stable_summary(capsys):
    assert cli_main(["chaos", "run", "bus_noise", "--seed", "7"]) == 0
    first = _last_line(capsys)
    assert first.startswith(
        "[repro chaos run] scenario=bus_noise seed=7 interval_s=0.560 ")
    for field in ("ticks=", "faults=", "recovered=", "dark=", "retries=",
                  "backoff_s=", "breaker_opens="):
        assert field in first
    # Stable: a second identical invocation renders the same bytes.
    assert cli_main(["chaos", "run", "bus_noise", "--seed", "7"]) == 0
    assert _last_line(capsys) == first


def test_chaos_run_accepts_duration_and_rate(capsys):
    assert cli_main(["chaos", "run", "bus_noise", "--seed", "3",
                     "--duration", "3.0", "--rate", "0.5"]) == 0
    assert "scenario=bus_noise seed=3" in _last_line(capsys)


def test_chaos_list_exits_zero(capsys):
    assert cli_main(["chaos", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("bmc_dark", "daemon_wedge", "bus_noise"):
        assert name in out


@pytest.mark.parametrize("argv", [
    ["chaos"],
    ["chaos", "run"],
    ["chaos", "run", "no_such_scenario"],
    ["chaos", "run", "bus_noise", "--seed"],
    ["chaos", "run", "bus_noise", "--seed", "not-a-number"],
    ["chaos", "frobnicate"],
    ["chaos", "run", "bus_noise", "--duration", "-5"],
    ["chaos", "run", "bus_noise", "--duration", "nan"],
    ["chaos", "run", "bus_noise", "--duration", "inf"],
    ["chaos", "run", "bus_noise", "--rate", "-1"],
    ["chaos", "run", "bus_noise", "--seed", "-3"],
])
def test_bad_usage_exits_two(argv, capsys):
    assert cli_main(argv) == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize("flag, value, field", [
    ("--duration", "-5", "duration_s"),
    ("--duration", "nan", "duration_s"),
    ("--duration", "-inf", "duration_s"),
    ("--rate", "1.5", "rate"),
    ("--rate", "nan", "rate"),
    ("--seed", "-3", "seed"),
])
def test_bad_override_is_one_line_naming_the_field(flag, value, field,
                                                    capsys):
    assert cli_main(["chaos", "run", "bus_noise", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and f"{field} must be" in lines[0]
