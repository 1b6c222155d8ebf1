"""Manifest validation: every rejection names the offending field.

The schema's contract is diagnostic precision — a typo'd key, a
mis-typed value, or an unknown mechanism/experiment name must raise
:class:`~repro.errors.PackError` whose message contains the dotted
path of the field that caused it.  The property suite drives that
contract over generated key names and windows; the directed cases pin
each kind-specific shape rule.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PackError
from repro.packs.schema import _TOP_KEYS, ScenarioSpec, parse_scenario


def base_manifest(**overrides) -> dict:
    raw = {
        "name": "probe",
        "kind": "session",
        "summary": "a probe scenario",
        "testbed": {"kind": "phi"},
        "mechanisms": ["micsmc"],
    }
    raw.update(overrides)
    return raw


def rejects(raw: dict) -> str:
    """Parse must fail; returns the error message for field asserts."""
    with pytest.raises(PackError) as excinfo:
        parse_scenario(raw)
    return str(excinfo.value)


def test_base_manifest_is_valid():
    spec = parse_scenario(base_manifest())
    assert isinstance(spec, ScenarioSpec)
    assert spec.kind == "session" and spec.mechanisms == ("micsmc",)


_IDENT = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True)


@given(key=_IDENT.filter(lambda k: k not in _TOP_KEYS))
@settings(max_examples=25, deadline=None)
def test_unknown_top_level_key_is_named(key):
    message = rejects(base_manifest(**{key: 1}))
    assert repr(key) in message and "unknown key" in message


@given(key=_IDENT.filter(
    lambda k: k not in ("kind", "seed", "gpu_model", "power_cap_w",
                        "kernel")))
@settings(max_examples=25, deadline=None)
def test_unknown_testbed_key_is_named(key):
    raw = base_manifest(testbed={"kind": "phi", key: 1})
    message = rejects(raw)
    assert f"testbed.{key}" in message


_WRONG_TYPES = {
    "name": 0,
    "kind": 3,
    "summary": 7,
    "duration_s": "fast",
    "seed": 1.5,
    "interval_s": [0.1],
    "mechanisms": "micsmc",
    "experiments": "table1",
    "testbed": "phi",
    "workload": ["phase"],
    "faults": 4,
    "fleet": "smoke",
}


@pytest.mark.parametrize("key", sorted(_WRONG_TYPES))
def test_wrong_type_names_the_field(key):
    message = rejects(base_manifest(**{key: _WRONG_TYPES[key]}))
    assert key in message


@pytest.mark.parametrize("key", ["duration_s", "seed", "interval_s"])
def test_bool_is_not_a_number(key):
    message = rejects(base_manifest(**{key: True}))
    assert key in message and "bool" in message


@pytest.mark.parametrize("key", ["name", "kind", "summary"])
def test_missing_required_key_is_named(key):
    raw = base_manifest()
    del raw[key]
    message = rejects(raw)
    assert "missing required key" in message and repr(key) in message


@given(name=_IDENT)
@settings(max_examples=25, deadline=None)
def test_unknown_mechanism_is_named_with_its_index(name):
    from repro.mech import mechanisms

    if name in mechanisms():
        return  # a real mechanism would validate; property is about typos
    message = rejects(base_manifest(
        testbed={"kind": "fleet"}, mechanisms=["micsmc", name]))
    assert "mechanisms[1]" in message and repr(name) in message


def test_mechanism_not_offered_by_testbed():
    message = rejects(base_manifest(mechanisms=["nvml"]))  # phi testbed
    assert "mechanisms[0]" in message and "'phi'" in message


def test_duplicate_mechanism_is_rejected():
    message = rejects(base_manifest(mechanisms=["micsmc", "micsmc"]))
    assert "mechanisms[1]" in message and "duplicate" in message


def test_unknown_experiment_is_named_with_its_index():
    raw = {"name": "exps", "kind": "experiments", "summary": "x",
           "experiments": ["table1", "table9"]}
    message = rejects(raw)
    assert "experiments[1]" in message and "'table9'" in message


@given(start=st.floats(0.0, 1.0), end=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_fault_windows_validate_as_fractions(start, end):
    raw = base_manifest(
        kind="chaos",
        faults={"rules": [{"mechanism": "ipmb", "t_start_frac": start,
                           "t_end_frac": end}]},
    )
    if end > start:
        spec = parse_scenario(raw)
        rule = spec.faults.rules[0]
        assert (rule.t_start_frac, rule.t_end_frac) == (start, end)
    else:
        assert "faults.rules[0]" in rejects(raw)


@given(level=st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=25, deadline=None)
def test_phase_loads_must_be_unit_fractions(level):
    raw = base_manifest(workload={
        "name": "w",
        "phases": [{"name": "p", "duration_s": 1.0,
                    "loads": {"phi.cores": level}}],
    })
    if 0.0 <= level <= 1.0:
        parse_scenario(raw)
    else:
        message = rejects(raw)
        assert "workload.phases[0].loads.phi.cores" in message


@given(key=st.sampled_from(["duration_s", "interval_s"]),
       value=st.floats(allow_nan=True, allow_infinity=True))
@settings(max_examples=40, deadline=None)
def test_run_lengths_must_be_positive_and_finite(key, value):
    raw = base_manifest(**{key: value})
    if value > 0.0 and math.isfinite(value):
        assert getattr(parse_scenario(raw), key) == value
    else:
        assert f"{key} must be positive and finite" in rejects(raw)


@pytest.mark.parametrize("raw, needle", [
    (base_manifest(duration_s=math.nan), "duration_s"),
    (base_manifest(interval_s=math.nan), "interval_s"),
    (base_manifest(workload={"name": "w", "phases": [
        {"name": "p", "duration_s": math.nan}]}),
     "workload.phases[0].duration_s"),
    (base_manifest(kind="chaos", faults={
        "default_rate": math.nan, "rules": [{"mechanism": "ipmb"}]}),
     "faults.default_rate"),
])
def test_nan_is_rejected_naming_the_field(raw, needle):
    assert f"{needle} must be" in rejects(raw)


def test_toml_nan_interval_is_rejected_at_load(tmp_path):
    from repro.packs import load_scenario

    path = tmp_path / "nan.toml"
    path.write_text('name = "nan"\nkind = "session"\nsummary = "x"\n'
                    'interval_s = nan\nmechanisms = ["micsmc"]\n'
                    '[testbed]\nkind = "phi"\n', encoding="utf-8")
    with pytest.raises(PackError, match="interval_s must be positive"):
        load_scenario(path)


def test_unknown_workload_component_is_named():
    raw = base_manifest(workload={
        "name": "w",
        "phases": [{"name": "p", "duration_s": 1.0,
                    "loads": {"warp.drive": 0.5}}],
    })
    message = rejects(raw)
    assert "workload.phases[0].loads.warp.drive" in message


@pytest.mark.parametrize("raw, needle", [
    (base_manifest(kind="bogus"), "kind must be one of"),
    (base_manifest(duration_s=-1.0), "duration_s must be positive"),
    (base_manifest(interval_s=0.0), "interval_s must be positive"),
    (base_manifest(seed=-3), "seed must be >= 0"),
    (base_manifest(kind="chaos"), "requires a [faults] section"),
    (base_manifest(testbed={"kind": "warehouse"}), "testbed.kind"),
    (base_manifest(testbed={"kind": "phi", "gpu_model": "k40"}),
     "testbed.gpu_model"),
    (base_manifest(testbed={"kind": "phi", "kernel": "3.14"}),
     "testbed.kernel"),
    (base_manifest(fleet={"smoke": True}), "fleet does not apply"),
    ({"name": "x", "kind": "experiments", "summary": "s",
      "experiments": ["table1"], "testbed": {"kind": "phi"}},
     "testbed does not apply"),
    ({"name": "x", "kind": "experiments", "summary": "s",
      "experiments": []}, "non-empty"),
    ({"name": "x", "kind": "fleet", "summary": "s",
      "faults": {"rules": [{"mechanism": "ipmb"}]}},
     "faults does not apply"),
    ({"name": "bad/slug", "kind": "session", "summary": "s"},
     "non-empty slug"),
])
def test_shape_rules_name_the_out_of_place_section(raw, needle):
    assert needle in rejects(raw)


def test_fault_rule_mechanism_checked_against_registry():
    raw = base_manifest(
        kind="chaos",
        faults={"rules": [{"mechanism": "warp_core"}]},
    )
    message = rejects(raw)
    assert "'warp_core'" in message and "unknown mechanism" in message


def test_validation_failures_increment_the_metric():
    from repro.obs.instruments import PACK_VALIDATION_ERRORS

    before = PACK_VALIDATION_ERRORS.samples().get((), 0.0)
    rejects(base_manifest(kind="bogus"))
    after = PACK_VALIDATION_ERRORS.samples().get((), 0.0)
    assert after == before + 1
