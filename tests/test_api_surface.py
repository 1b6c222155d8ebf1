"""Tier-1 contract tests of the versioned ``repro.api`` surface.

The contract cuts both ways: every supported name resolves from its
namespace, and no legacy v1 flat name resolves from ``repro.api``
itself any more — the flat aliases, deprecated through v2, are gone.
"""

import importlib
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

import repro.api as api

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
API_DOC = REPO_ROOT / "docs" / "api.md"

NAMESPACE_NAMES = ("session", "mech", "data", "chaos", "exec",
                   "errors", "service", "fleet", "packs")


@pytest.mark.tier1
def test_api_version_is_11():
    assert api.API_VERSION == "11"
    assert api.__version__.count(".") == 2


@pytest.mark.tier1
def test_import_loads_no_experiment_module_and_no_networkx():
    """The experiment registry resolves ids on lookup, so importing the
    surface in a fresh interpreter loads no ``repro.experiments.<id>``
    module, and nothing in the package pulls in networkx or scipy (the
    runtime depends on numpy only)."""
    from repro.exec.registry import EXPERIMENT_IDS

    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.api; print('\\n'.join(sys.modules))"],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": f"{REPO_ROOT}/src", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "networkx" not in loaded
    assert "scipy" not in loaded
    experiments = {f"repro.experiments.{exp_id}" for exp_id in EXPERIMENT_IDS}
    assert not loaded & experiments, sorted(loaded & experiments)


@pytest.mark.tier1
def test_namespaces_exist_and_export():
    assert set(api.NAMESPACES) == set(NAMESPACE_NAMES)
    for ns_name in NAMESPACE_NAMES:
        module = importlib.import_module(f"repro.api.{ns_name}")
        assert module is api.NAMESPACES[ns_name]
        assert module.__all__, f"repro.api.{ns_name} must export a surface"


@pytest.mark.tier1
def test_every_namespace_name_resolves():
    for ns_name, module in api.NAMESPACES.items():
        for name in module.__all__:
            value = getattr(module, name)
            assert value is not None, f"repro.api.{ns_name}.{name}"


@pytest.mark.tier1
def test_no_implementation_module_leaks_into_all():
    """``__all__`` lists supported *names*, never modules — a module in
    the surface would smuggle its whole namespace past the policy."""
    for ns_name, module in api.NAMESPACES.items():
        leaked = [name for name in module.__all__
                  if isinstance(getattr(module, name), types.ModuleType)]
        assert not leaked, f"repro.api.{ns_name}.__all__ leaks {leaked}"


@pytest.mark.tier1
def test_no_name_exported_by_two_namespaces():
    seen = {}
    for ns_name, module in api.NAMESPACES.items():
        for name in module.__all__:
            assert name not in seen, (
                f"{name} exported by both {seen[name]} and {ns_name}")
            seen[name] = ns_name


@pytest.mark.tier1
def test_every_v1_flat_name_is_gone():
    """The v1 surface, name for name: removed flat, still namespaced —
    except ``EnvRecord`` and ``WriteBatcher``, which v8 removed from
    every namespace, and ``SCENARIOS`` and ``run_scenario``, which v9
    removed (the chaos scenarios are ``repro.api.packs.chaos_packs``).
    The v1 result-cache classes left with the cache in v10."""
    v1_names = [
        "initialize", "finalize", "profile_run", "backends_for_node",
        "Backend", "MoneqConfig", "MoneqSession", "MoneqResult",
        "Mechanism", "MechanismSpec", "AccessChannel", "FreshnessModel",
        "CapabilityDecl", "SensorSource", "mechanisms",
        "EnvironmentalDatabase", "ShardedStore", "ShardMap", "Reading",
        "Aggregate", "QueryPlan", "FlushReport", "series_from_readings",
        "store_series",
        "FaultPlan", "FaultRule", "RetryPolicy", "CircuitBreaker",
        "DARK_READING",
        "Engine", "EngineStats", "ExperimentSpec", "ExperimentReport",
        "ReproError", "ConfigError", "DeviceError", "SensorError",
        "MoneqError", "MoneqStateError", "MoneqBufferFullError",
        "ExperimentExecutionError", "ChaosError",
    ]
    homes = {name: ns_name for ns_name, module in api.NAMESPACES.items()
             for name in module.__all__}
    for name in v1_names:
        with pytest.raises(AttributeError, match=name):
            getattr(api, name)
        assert name not in dir(api)
        assert name in homes, f"v1 name {name} has no namespace home"
    for name in ("EnvRecord", "WriteBatcher", "SCENARIOS", "run_scenario",
                 "ResultCache", "CacheStats"):
        assert name not in homes, f"{name} was removed from every namespace"
        assert not hasattr(api, name)


@pytest.mark.tier1
def test_unknown_flat_name_raises():
    with pytest.raises(AttributeError, match="does_not_exist"):
        api.does_not_exist


@pytest.mark.tier1
def test_every_export_documented_in_api_md():
    assert API_DOC.is_file(), "docs/api.md missing"
    text = API_DOC.read_text(encoding="utf-8")
    undocumented = [
        f"{ns_name}.{name}"
        for ns_name, module in api.NAMESPACES.items()
        for name in module.__all__
        if name not in text
    ]
    assert not undocumented, (
        f"docs/api.md does not mention: {undocumented}")


@pytest.mark.tier1
def test_policy_documented():
    assert "Compatibility policy" in api.__doc__
    text = API_DOC.read_text(encoding="utf-8")
    assert "Compatibility policy" in text
    assert "removed in v3" in text, "the migration table must stay"


@pytest.mark.skipif(shutil.which("ruff") is None,
                    reason="ruff not installed in this environment")
def test_repo_is_ruff_clean():
    result = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.tier1
def test_backend_block_contract_on_surface():
    """The vectorized sampling contract is supported API: ``Backend``
    declares ``read_block``, and the scalar-loop fallback serves any
    subclass that only implements ``read_at``."""
    from repro.api.session import Backend

    assert callable(Backend.read_block)
    assert "bit-identical" in Backend.read_block.__doc__

    class TwoFieldBackend(Backend):
        platform = "test"
        label = "t0"
        min_interval_s = 0.1
        query_latency_s = 1e-4

        def fields(self):
            return ["a", "b"]

        def read_at(self, t):
            return {"a": t * 2.0, "b": t - 1.0}

        def capabilities(self):
            return None

    block = TwoFieldBackend().read_block([0.0, 0.5, 2.0])
    assert block.dtype.names == ("a", "b")
    assert list(block["a"]) == [0.0, 1.0, 4.0]
    assert list(block["b"]) == [-1.0, -0.5, 1.0]


@pytest.mark.tier1
def test_session_config_exposes_block_ticks():
    from repro.api.session import MoneqConfig

    assert MoneqConfig(block_ticks=256).block_ticks == 256
