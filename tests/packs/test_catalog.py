"""The pack catalog: discovery, the env override, and the chaos packs'
bit-identical rule tuples."""

import json
import math

import pytest

from repro.chaos.faults import FaultRule
from repro.errors import PackError
from repro.packs import catalog
from repro.packs.catalog import (
    all_packs,
    chaos_packs,
    load_pack,
    pack_path,
    pack_paths,
    packs_dir,
)

EXPECTED_PACKS = {
    "bmc_dark": "chaos",
    "bus_noise": "chaos",
    "daemon_wedge": "chaos",
    "dvfs-ramp": "session",
    "fleet-sweep": "fleet",
    "ipmi-bmc-rapl": "session",
    "nvml-powercap-k40": "session",
    "paper-core": "experiments",
    "phi-micsmc": "session",
    "thermal-excursion": "session",
}


def test_builtin_catalog_validates_completely():
    packs = all_packs()
    assert {name: spec.kind for name, spec in packs.items()} \
        == EXPECTED_PACKS
    for name, spec in packs.items():
        assert spec.name == name
        assert spec.source == pack_path(name).name


def test_chaos_catalog_keeps_the_story_order():
    assert list(chaos_packs()) == ["bmc_dark", "daemon_wedge", "bus_noise"]


def test_chaos_scenarios_build_the_legacy_rule_tuples():
    """The chaos packs' fault sections must resolve to the exact
    FaultRule tuples the hand-written chaos catalog used to build —
    same kinds, same absolute windows, bit for bit (rule seeds derive
    from these fields, so any drift changes every chaos golden)."""
    from repro.packs.runtime import fault_rules

    duration = 12.0
    packs = chaos_packs()
    assert fault_rules(packs["bmc_dark"].faults, duration, 1.0) == (
        FaultRule("ipmb", rate=1.0, kind="bmc_dark",
                  t_start=0.4 * duration),)
    assert fault_rules(packs["daemon_wedge"].faults, duration, 1.0) == (
        FaultRule("micras", rate=1.0, kind="daemon_wedged",
                  t_start=0.4 * duration),)
    assert fault_rules(packs["bus_noise"].faults, duration, 0.3) == (
        FaultRule("ipmb", rate=0.3, kind="ipmb_drop",
                  t_start=0.0, t_end=math.inf),)
    assert packs["bus_noise"].faults.default_rate == 0.10


def test_unknown_pack_lists_the_catalog():
    with pytest.raises(PackError) as excinfo:
        pack_path("no-such-pack")
    message = str(excinfo.value)
    assert "'no-such-pack'" in message and "phi-micsmc" in message


def _write_manifest(path, name, **extra):
    raw = {"name": name, "kind": "session", "summary": "override pack",
           "testbed": {"kind": "phi"}, "mechanisms": ["micsmc"], **extra}
    path.write_text(json.dumps(raw), encoding="utf-8")


def test_env_override_replaces_the_builtin_directory(tmp_path, monkeypatch):
    _write_manifest(tmp_path / "custom.json", "custom")
    monkeypatch.setenv(catalog.PACKS_DIR_ENV, str(tmp_path))
    assert packs_dir() == tmp_path
    assert list(pack_paths()) == ["custom"]
    assert load_pack("custom").name == "custom"
    with pytest.raises(PackError):
        pack_path("phi-micsmc")  # the builtin catalog is replaced, not merged


def test_duplicate_stems_across_suffixes_fail_loudly(tmp_path, monkeypatch):
    _write_manifest(tmp_path / "twin.json", "twin")
    (tmp_path / "twin.toml").write_text(
        'name = "twin"\nkind = "fleet"\nsummary = "twin"\n',
        encoding="utf-8")
    monkeypatch.setenv(catalog.PACKS_DIR_ENV, str(tmp_path))
    with pytest.raises(PackError, match="twin"):
        pack_paths()


def test_manifest_name_must_match_the_file_stem(tmp_path, monkeypatch):
    _write_manifest(tmp_path / "outer.json", "inner")
    monkeypatch.setenv(catalog.PACKS_DIR_ENV, str(tmp_path))
    with pytest.raises(PackError) as excinfo:
        load_pack("outer")
    assert "'inner'" in str(excinfo.value)
