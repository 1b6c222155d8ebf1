"""``repro pack list|show|run`` CLI smoke and contract tests."""

import json

import pytest

from repro.__main__ import main as cli_main


def test_pack_list_shows_the_catalog(capsys):
    assert cli_main(["pack", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("phi-micsmc", "paper-core", "fleet-sweep", "bmc_dark",
                 "dvfs-ramp", "nvml-powercap-k40", "thermal-excursion",
                 "ipmi-bmc-rapl"):
        assert name in out


def test_pack_show_renders_fields(capsys):
    assert cli_main(["pack", "show", "phi-micsmc"]) == 0
    out = capsys.readouterr().out
    assert "micsmc" in out and "phi" in out


def test_pack_show_json_round_trips_the_manifest(capsys):
    assert cli_main(["pack", "show", "paper-core", "--json"]) == 0
    raw = json.loads(capsys.readouterr().out)
    assert raw["name"] == "paper-core" and raw["kind"] == "experiments"
    assert "table1" in raw["experiments"]


def test_pack_run_prints_block_and_stats(tmp_path, capsys):
    assert cli_main(["pack", "run", "phi-micsmc", "--no-cache",
                     "--cache-root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "## pack:phi-micsmc" in out
    assert "# pack phi-micsmc: 1 executed" in out


def test_pack_run_json_emits_the_payload(tmp_path, capsys):
    assert cli_main(["pack", "run", "phi-micsmc", "--json", "--no-cache",
                     "--cache-root", str(tmp_path)]) == 0
    documents = json.loads(capsys.readouterr().out)
    assert len(documents) == 1
    doc = documents[0]
    assert doc["pack"] == "phi-micsmc" and doc["kind"] == "session"
    assert doc["payload"]["ticks"] > 0
    assert doc["exp_id"].startswith("pack:phi-micsmc@")


def test_pack_run_overrides_reach_the_session(tmp_path, capsys):
    assert cli_main(["pack", "run", "phi-micsmc", "--json", "--no-cache",
                     "--cache-root", str(tmp_path),
                     "--seed", "42", "--duration", "2.0"]) == 0
    doc = json.loads(capsys.readouterr().out)[0]
    assert doc["payload"]["seed"] == 42
    assert doc["payload"]["duration_s"] == 2.0


def test_pack_run_smoke_runs_the_ci_pair(tmp_path, capsys):
    from repro.packs import SMOKE_PACKS

    assert cli_main(["pack", "run", "--smoke", "--no-cache",
                     "--cache-root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for name in SMOKE_PACKS:
        assert f"## pack:{name}" in out


def test_pack_run_accepts_a_manifest_path(tmp_path, capsys):
    manifest = tmp_path / "adhoc.json"
    manifest.write_text(json.dumps({
        "name": "adhoc", "kind": "session", "summary": "ad-hoc pack",
        "duration_s": 1.0, "testbed": {"kind": "phi"},
        "mechanisms": ["micsmc"],
    }), encoding="utf-8")
    assert cli_main(["pack", "run", str(manifest), "--no-cache",
                     "--cache-root", str(tmp_path / "cache")]) == 0
    assert "## pack:adhoc" in capsys.readouterr().out


@pytest.mark.parametrize("argv, needle", [
    (["pack"], "usage"),
    (["pack", "frobnicate"], "usage"),
    (["pack", "show"], "exactly one"),
    (["pack", "run"], "at least one"),
    (["pack", "run", "--smoke", "phi-micsmc"], "--smoke"),
    (["pack", "run", "phi-micsmc", "--seed"], "needs a value"),
    (["pack", "run", "phi-micsmc", "--seed", "lots"], "invalid literal"),
    (["pack", "run", "no-such-pack"], "not in the catalog"),
    (["pack", "show", "no-such-pack"], "not in the catalog"),
    (["pack", "run", "bus_noise", "--duration", "-5"], "duration_s"),
    (["pack", "run", "bus_noise", "--duration", "nan"], "duration_s"),
    (["pack", "run", "phi-micsmc", "--duration", "inf"], "duration_s"),
    (["pack", "run", "bus_noise", "--rate", "-1"], "rate"),
    (["pack", "run", "bus_noise", "--seed", "-3"], "seed"),
])
def test_pack_bad_usage_exits_two(argv, needle, capsys):
    assert cli_main(argv) == 2
    assert needle in capsys.readouterr().err


def test_pack_run_invalid_manifest_names_the_field(tmp_path, capsys):
    manifest = tmp_path / "broken.json"
    manifest.write_text(json.dumps({
        "name": "broken", "kind": "session", "summary": "x",
        "durations": 9.0,
    }), encoding="utf-8")
    assert cli_main(["pack", "run", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert "'durations'" in err and "unknown key" in err
