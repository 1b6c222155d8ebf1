"""Compiling packs onto the engine: byte-identity across repeat runs,
and the paper-core reproduction."""

import pathlib

import pytest

from repro.errors import PackError
from repro.experiments.report import render_block
from repro.packs import compile_spec, load_pack, run_pack
from repro.packs.catalog import raw_pack

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def block_texts(result) -> list[str]:
    return ["\n".join(render_block(block))
            for block in result.blocks.values()]


def test_compile_is_idempotent_and_override_aware():
    raw = raw_pack("phi-micsmc")
    first, scenario = compile_spec(raw)
    again, _ = compile_spec(raw)
    assert again is first or again == first
    assert first.exp_id.startswith("pack:phi-micsmc@")
    assert scenario.kind == "session"
    reseeded, _ = compile_spec(raw, seed=999)
    assert reseeded.exp_id != first.exp_id  # a different run, a new id


def test_experiments_packs_do_not_compile():
    with pytest.raises(PackError, match="paper-core"):
        compile_spec(raw_pack("paper-core"))


@pytest.mark.tier1
def test_repeat_runs_render_identical_blocks():
    first = run_pack("phi-micsmc")
    second = run_pack("phi-micsmc")
    assert first.stats.executed == second.stats.executed == 1
    assert block_texts(first) == block_texts(second)
    payload = first.payloads[first.exp_id]
    assert payload["kind"] == "session" and payload["ticks"] > 0


@pytest.mark.tier1
def test_paper_core_reproduces_experiments_md_blocks():
    committed = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    result = run_pack("paper-core")
    spec = load_pack("paper-core")
    assert list(result.blocks) == list(spec.experiments)
    for exp_id in spec.experiments:
        text = "\n".join(render_block(result.blocks[exp_id]))
        assert text in committed, f"{exp_id} block drifted from the report"


def test_pack_run_matches_the_live_chaos_path():
    """The engine-dispatched payload must agree with the live
    ``execute_scenario`` path byte for byte — same timeline, same stats,
    same outputs (both execute ``repro.packs.runtime.execute_scenario``)."""
    import json

    from repro.packs.runtime import execute_scenario, scenario_payload

    result = run_pack("bmc_dark")
    payload = result.payloads[result.exp_id]
    live = execute_scenario(load_pack("bmc_dark"))
    assert payload["timeline"] == live.timeline_lines()
    assert json.dumps(payload, sort_keys=True) == json.dumps(
        scenario_payload(load_pack("bmc_dark"), live), sort_keys=True)


def _canned_fleet_row(monkeypatch, calls):
    """Swap the ``fleet`` bench row for one that records the site count
    its profile ran with and returns it."""
    from repro import perfbench

    def canned(sites):
        calls.append(sites)
        return {"wall_s": 0.5, "speedup_vs_scalar": 10.0, "sites": sites}

    monkeypatch.setitem(perfbench.BENCHES, "fleet", perfbench.Bench(
        canned, full={"sites": 10}, smoke={"sites": 2},
        floors={"full": 2.0, "smoke": 2.0}))


def test_fleet_packs_use_the_rows_smoke_sizes_on_every_run(monkeypatch):
    calls = []
    _canned_fleet_row(monkeypatch, calls)
    run_pack("fleet-sweep")
    run_pack("fleet-sweep")
    assert calls == [2, 2]


def test_run_pack_accepts_a_raw_manifest_mapping(monkeypatch):
    _canned_fleet_row(monkeypatch, [])
    raw = raw_pack("fleet-sweep")
    raw = {**raw, "fleet": {"smoke": False}}
    result = run_pack(raw)
    assert result.payloads[result.exp_id]["fleet"]["sites"] == 10


def test_pack_runs_metric_counts_dispatches():
    from repro.obs.instruments import PACK_RUNS

    key = ("phi-micsmc", "session")
    before = PACK_RUNS.samples().get(key, 0.0)
    run_pack("phi-micsmc")
    assert PACK_RUNS.samples().get(key, 0.0) == before + 1


def test_run_pack_validates_the_manifest_once(monkeypatch):
    """The compiled config hands its validated scenario to the engine
    run, so each ``run_pack`` validates its manifest once."""
    from repro.packs import manifest
    from repro.packs import run as pack_run

    calls = []
    validate = manifest.scenario_from_mapping

    def counted(*args, **kwargs):
        calls.append(1)
        return validate(*args, **kwargs)

    monkeypatch.setattr(manifest, "scenario_from_mapping", counted)
    monkeypatch.setattr(pack_run, "scenario_from_mapping", counted)
    first = run_pack("phi-micsmc")
    for _ in range(299):
        assert run_pack("phi-micsmc").exp_id == first.exp_id
    assert len(calls) == 300
