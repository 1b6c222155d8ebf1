"""Behaviour must not depend on what ran earlier in the process.

The mechanism catalog is a constant and the chaos catalog is the chaos
packs read on each call, so neither changes with import order or with
what the process did before; and ``repro.mech`` imports nothing from
MonEQ, so its modules import first in a fresh interpreter.  (CI imports
every ``src/repro`` module alone; that sweep is too slow for tier-1.)
"""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import main as cli_main
from repro.packs.catalog import PACKS_DIR_ENV, packs_dir

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

NINE_MECHANISMS = ["emon", "rapl_msr", "rapl_powercap", "rapl_perf", "nvml",
                   "sysmgmt", "micras", "ipmb", "micsmc"]


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": f"{REPO_ROOT}/src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.tier1
def test_mechanism_module_imports_first_in_a_fresh_interpreter():
    _fresh("import repro.mech.mechanism")


@pytest.mark.tier1
def test_service_reports_all_nine_mechanisms_with_no_prior_import():
    out = _fresh(
        "import json\n"
        "from repro.service import build_rig\n"
        "_, _, client = build_rig(racks=2, shards=2, sweeps=1)\n"
        "read = client.get('/v2/mech/rapl_msr/read')\n"
        "print(json.dumps([client.get('/v2/mech').json(),\n"
        "                  client.get('/health').json(),\n"
        "                  read.status, read.json()]))\n"
    )
    listing, health, read_status, read_body = json.loads(out)
    assert listing["count"] == 9
    assert [row["mechanism"] for row in listing["mechanisms"]] == \
        NINE_MECHANISMS
    assert health["mechanisms"]["registered"] == 9
    # Declared but not attached to a machine-only service: still a 404,
    # but not "no mechanism".
    assert read_status == 404
    assert "registered but not attached" in read_body["error"]["detail"]


@pytest.mark.tier1
def test_chaos_catalog_follows_the_pack_directory(tmp_path, monkeypatch,
                                                  capsys):
    """A chaos pack that appears after the catalog was first read is
    listed and runs: nothing snapshots the packs."""
    assert cli_main(["chaos", "list"]) == 0  # read the built-in packs first
    manifest = (packs_dir() / "bus_noise.toml").read_text(encoding="utf-8")
    (tmp_path / "extra_noise.toml").write_text(
        manifest.replace('name = "bus_noise"', 'name = "extra_noise"'),
        encoding="utf-8")
    monkeypatch.setenv(PACKS_DIR_ENV, str(tmp_path))
    capsys.readouterr()

    assert cli_main(["chaos", "list"]) == 0
    assert "extra_noise" in capsys.readouterr().out
    assert cli_main(["chaos", "run", "extra_noise", "--seed", "7"]) == 0
    # The same faults as the built-in bus_noise golden, under the new name.
    assert capsys.readouterr().out.splitlines()[-1] == (
        "[repro chaos run] scenario=extra_noise seed=7 interval_s=0.560 "
        "ticks=21 faults=5 recovered=5 dark=0 retries=5 backoff_s=0.112334 "
        "breaker_opens=0 stale=0")
