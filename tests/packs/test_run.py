"""Compiling packs onto the engine: cache behavior, byte-identity
across cold/warm/uncached runs, and the paper-core reproduction."""

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
def test_cold_warm_and_fanned_runs_render_identical_blocks(tmp_path):
    cold = run_pack("phi-micsmc", cache_root=str(tmp_path))
    assert (cold.stats.executed, cold.stats.cache_hits) == (1, 0)
    warm = run_pack("phi-micsmc", cache_root=str(tmp_path))
    assert (warm.stats.executed, warm.stats.cache_hits) == (0, 1)
    uncached = run_pack("phi-micsmc", cache=False, cache_root=str(tmp_path))
    assert uncached.stats.executed == 1
    assert block_texts(cold) == block_texts(warm) == block_texts(uncached)
    payload = cold.payloads[cold.exp_id]
    assert payload["kind"] == "session" and payload["ticks"] > 0


@pytest.mark.tier1
def test_paper_core_reproduces_experiments_md_blocks(tmp_path):
    committed = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    result = run_pack("paper-core", cache_root=str(tmp_path))
    spec = load_pack("paper-core")
    assert list(result.blocks) == list(spec.experiments)
    for exp_id in spec.experiments:
        text = "\n".join(render_block(result.blocks[exp_id]))
        assert text in committed, f"{exp_id} block drifted from the report"


def test_pack_run_matches_the_live_chaos_path():
    """The engine-dispatched payload must agree with the live
    ``run_scenario`` path byte for byte — same timeline, same stats,
    same outputs (both execute ``repro.packs.runtime.execute_scenario``)."""
    import json

    from repro.chaos import run_scenario
    from repro.packs.runtime import scenario_payload

    result = run_pack("bmc_dark", cache=False)
    payload = result.payloads[result.exp_id]
    live = run_scenario("bmc_dark")
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


def test_fleet_packs_never_cache(tmp_path, monkeypatch):
    calls = []
    _canned_fleet_row(monkeypatch, calls)
    for _ in range(2):
        result = run_pack("fleet-sweep", cache=True,
                          cache_root=str(tmp_path))
        assert result.stats.cache_hits == 0  # wall-clock: forced cold
    assert calls == [2, 2]  # the manifest's smoke profile


def test_run_pack_accepts_a_raw_manifest_mapping(tmp_path, monkeypatch):
    _canned_fleet_row(monkeypatch, [])
    raw = raw_pack("fleet-sweep")
    raw = {**raw, "fleet": {"smoke": False}}
    result = run_pack(raw, cache_root=str(tmp_path))
    assert result.payloads[result.exp_id]["fleet"]["sites"] == 10


def test_pack_runs_metric_counts_dispatches():
    from repro.obs.instruments import PACK_RUNS

    key = ("phi-micsmc", "session")
    before = PACK_RUNS.samples().get(key, 0.0)
    run_pack("phi-micsmc", cache=False)
    assert PACK_RUNS.samples().get(key, 0.0) == before + 1
