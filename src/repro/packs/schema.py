"""The scenario-pack schema: what a manifest may declare, validated.

A **scenario pack** is a declarative description of one run the repo
knows how to execute: which testbed to stand up, which vendor
mechanisms to poll, what phased workload to schedule, which fault plan
to install, and how long to run — or, for the other kinds, which paper
experiments to regenerate or which fleet profile to sweep.  The schema
is deliberately small and *strict*: unknown keys, wrong types, and
unknown mechanism/experiment names are all :class:`~repro.errors.
PackError`\\ s that name the offending field by its dotted path
(``workload.phases[2].duration_s``), so a typo in a manifest fails at
load time with a message that points at the line to fix.

Validation is pure data-shape checking; nothing here touches devices.
The four scenario kinds:

``session``
    Stand up a testbed, schedule the workload, run one MonEQ session
    (optionally under a fault plan) for ``duration_s``.
``chaos``
    A ``session`` whose fault plan is the point — the chaos catalog's
    scenarios are these packs, and ``repro chaos run`` executes them.
``experiments``
    Regenerate the named paper experiments through the exec engine
    (content-addressed cache and all); ``paper-core`` lists them all.
``fleet``
    The federated multi-cluster sweep plus the channel-cache ablation
    (wall-clock timed, therefore never cached).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import PackError

#: Scenario kinds the runtime can execute.
KINDS = ("session", "chaos", "experiments", "fleet")

#: Testbed factories a session/chaos pack may name, and the vendor
#: paths each one offers.  ``fleet`` offers every registered mechanism
#: (resolved lazily against the live registry so a newly declared
#: mechanism is automatically available to packs).
TESTBED_KINDS = ("fleet", "rapl", "gpu", "phi")
TESTBED_MECHANISMS: dict[str, tuple[str, ...]] = {
    "rapl": ("rapl_msr", "rapl_powercap", "rapl_perf"),
    "gpu": ("nvml",),
    "phi": ("sysmgmt", "micras", "ipmb", "micsmc"),
}

#: GPU models a ``gpu`` testbed may select.
GPU_MODELS = ("k20", "k40")

_MISSING = object()


@dataclass(frozen=True)
class PhaseSpec:
    """One contiguous workload phase: component loads in [0, 1]."""

    name: str
    duration_s: float
    loads: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class WorkloadSpec:
    """A phased workload scheduled on every device the testbed carries
    (components are device-namespaced, so unknown ones are idle)."""

    name: str
    phases: tuple[PhaseSpec, ...]
    start_s: float = 5.0


@dataclass(frozen=True)
class TestbedSpec:
    """Which rig to stand up.  ``seed=None`` inherits the scenario
    seed (so ``--seed`` reseeds the hardware too)."""

    kind: str = "fleet"
    seed: int | None = None
    #: ``gpu`` testbeds only: which Kepler part, and an optional
    #: management power cap applied before the session starts.
    gpu_model: str = "k20"
    power_cap_w: float | None = None
    #: ``rapl`` testbeds only: simulated kernel release (gates which
    #: access paths exist — powercap needs 3.13, perf_event 3.14).
    kernel: str = "3.14"


@dataclass(frozen=True)
class FaultRuleSpec:
    """One fault rule, windowed by *fractions* of the run so the same
    manifest scales with ``--duration``.  ``rate=None`` means "the
    scenario rate" (the plan's ``default_rate``, or ``--rate``)."""

    mechanism: str
    rate: float | None = None
    kind: str = ""
    t_start_frac: float = 0.0
    #: ``None`` leaves the window open-ended (t_end = +inf), exactly
    #: like a legacy rule that names no end.
    t_end_frac: float | None = None


@dataclass(frozen=True)
class FaultPlanSpec:
    """The pack's fault plan: rules plus the scenario-level rate that
    rate-less rules inherit."""

    rules: tuple[FaultRuleSpec, ...]
    default_rate: float = 1.0


@dataclass(frozen=True)
class FleetSpec:
    """Fleet-sweep profile knobs (mirrors ``repro bench fleet [--smoke]``)."""

    smoke: bool = True


@dataclass(frozen=True)
class ScenarioSpec:
    """One validated scenario pack — everything the runtime needs."""

    name: str
    kind: str
    summary: str
    duration_s: float = 12.0
    seed: int = 0xC4A05
    #: Explicit polling interval; ``None`` = the hardware floor.
    interval_s: float | None = None
    testbed: TestbedSpec = field(default_factory=TestbedSpec)
    #: Vendor paths to poll; empty = every path the testbed offers.
    mechanisms: tuple[str, ...] = ()
    workload: WorkloadSpec | None = None
    faults: FaultPlanSpec | None = None
    #: ``experiments`` kind: registered experiment ids, report order.
    experiments: tuple[str, ...] = ()
    fleet: FleetSpec | None = None
    #: Where the manifest came from (diagnostics only; not identity).
    source: str = ""


# -- validation -------------------------------------------------------------


def _fail(ctx: str, message: str) -> None:
    from repro.obs.instruments import PACK_VALIDATION_ERRORS

    PACK_VALIDATION_ERRORS.inc()
    raise PackError(f"pack {ctx or '<manifest>'}: {message}")


def _require_mapping(ctx: str, path: str, value: object) -> dict:
    if not isinstance(value, dict):
        _fail(ctx, f"{path} must be a table, got {type(value).__name__}")
    return value


def _check_keys(ctx: str, path: str, data: dict, allowed: tuple[str, ...]):
    for key in data:
        if key not in allowed:
            where = f"{path}.{key}" if path else str(key)
            _fail(ctx, f"unknown key {where!r} (allowed: "
                       f"{', '.join(allowed)})")


def _get(ctx: str, path: str, data: dict, key: str, kinds, default=_MISSING):
    """Fetch ``data[key]`` checked against ``kinds`` (a type tuple);
    a missing key returns ``default`` or fails if none was given."""
    where = f"{path}.{key}" if path else key
    if key not in data:
        if default is _MISSING:
            _fail(ctx, f"missing required key {where!r}")
        return default
    value = data[key]
    # bool is an int subclass; never accept it where a number is meant.
    if isinstance(value, bool) and bool not in kinds:
        _fail(ctx, f"{where} must be {_kind_names(kinds)}, got bool")
    if not isinstance(value, kinds):
        _fail(ctx, f"{where} must be {_kind_names(kinds)}, "
                   f"got {type(value).__name__}")
    return value


def _kind_names(kinds) -> str:
    names = {str: "a string", bool: "a boolean", list: "a list",
             dict: "a table"}
    if kinds == (int,):
        return "an integer"
    if set(kinds) <= {int, float}:
        return "a number"
    return names.get(kinds[0], kinds[0].__name__)


def _check_run_value(ctx: str, field_path: str, value: object) -> None:
    """The one bounds check for a run's seed, durations, polling
    interval and fault rates — manifest fields and run-time overrides
    alike.  The last component of ``field_path`` picks the rule: a
    ``seed`` is an integer >= 0, a ``*rate`` lies in [0, 1], anything
    else (``duration_s``, ``interval_s``, ``power_cap_w``) is positive
    and finite.  NaN fails every rule; ``None`` (not given) passes."""
    if value is None:
        return
    rule = field_path.rsplit(".", 1)[-1]
    is_number = (isinstance(value, (int, float))
                 and not isinstance(value, bool))
    if rule == "seed":
        ok = isinstance(value, int) and is_number and value >= 0
        want = ">= 0 and an integer"
    elif rule.endswith("rate"):
        ok = is_number and 0.0 <= value <= 1.0
        want = "in [0, 1]"
    else:
        ok = is_number and 0.0 < value < math.inf
        want = "positive and finite"
    if not ok:
        _fail(ctx, f"{field_path} must be {want}, got {value!r}")


def check_overrides(name: str, **overrides: object) -> None:
    """Run-time overrides of pack ``name`` (``seed=``, ``duration_s=``,
    ``rate=``) through :func:`_check_run_value`; ``None`` means "not
    overridden"."""
    for field_path, value in overrides.items():
        _check_run_value(repr(name), field_path, value)


def _parse_phase(ctx: str, path: str, raw: object) -> PhaseSpec:
    data = _require_mapping(ctx, path, raw)
    _check_keys(ctx, path, data, ("name", "duration_s", "loads"))
    name = _get(ctx, path, data, "name", (str,))
    duration_s = float(_get(ctx, path, data, "duration_s", (int, float)))
    _check_run_value(ctx, f"{path}.duration_s", duration_s)
    loads_raw = _get(ctx, path, data, "loads", (dict,), default={})
    loads = []
    for component, level in loads_raw.items():
        where = f"{path}.loads.{component}"
        if isinstance(level, bool) or not isinstance(level, (int, float)):
            _fail(ctx, f"{where} must be a number, "
                       f"got {type(level).__name__}")
        if not 0.0 <= float(level) <= 1.0:
            _fail(ctx, f"{where} must be in [0, 1], got {level}")
        loads.append((str(component), float(level)))
    return PhaseSpec(name=name, duration_s=duration_s, loads=tuple(loads))


def _parse_workload(ctx: str, raw: object) -> WorkloadSpec:
    data = _require_mapping(ctx, "workload", raw)
    _check_keys(ctx, "workload", data, ("name", "phases", "start_s"))
    name = _get(ctx, "workload", data, "name", (str,))
    start_s = float(_get(ctx, "workload", data, "start_s", (int, float),
                         default=5.0))
    if not 0.0 <= start_s < math.inf:
        _fail(ctx, f"workload.start_s must be >= 0 and finite, "
                   f"got {start_s}")
    phases_raw = _get(ctx, "workload", data, "phases", (list,))
    if not phases_raw:
        _fail(ctx, "workload.phases must name at least one phase")
    phases = tuple(
        _parse_phase(ctx, f"workload.phases[{i}]", phase)
        for i, phase in enumerate(phases_raw)
    )
    return WorkloadSpec(name=name, phases=phases, start_s=start_s)


def _parse_testbed(ctx: str, raw: object) -> TestbedSpec:
    data = _require_mapping(ctx, "testbed", raw)
    _check_keys(ctx, "testbed", data,
                ("kind", "seed", "gpu_model", "power_cap_w", "kernel"))
    kind = _get(ctx, "testbed", data, "kind", (str,), default="fleet")
    if kind not in TESTBED_KINDS:
        _fail(ctx, f"testbed.kind must be one of "
                   f"{', '.join(TESTBED_KINDS)}; got {kind!r}")
    seed = _get(ctx, "testbed", data, "seed", (int,), default=None)
    _check_run_value(ctx, "testbed.seed", seed)
    gpu_model = _get(ctx, "testbed", data, "gpu_model", (str,),
                     default="k20")
    if gpu_model not in GPU_MODELS:
        _fail(ctx, f"testbed.gpu_model must be one of "
                   f"{', '.join(GPU_MODELS)}; got {gpu_model!r}")
    power_cap_w = _get(ctx, "testbed", data, "power_cap_w", (int, float),
                       default=None)
    _check_run_value(ctx, "testbed.power_cap_w", power_cap_w)
    for key in ("gpu_model", "power_cap_w"):
        if key in data and kind != "gpu":
            _fail(ctx, f"testbed.{key} only applies to the 'gpu' testbed "
                       f"(this one is {kind!r})")
    kernel = _get(ctx, "testbed", data, "kernel", (str,), default="3.14")
    if "kernel" in data and kind != "rapl":
        _fail(ctx, "testbed.kernel only applies to the 'rapl' testbed "
                   f"(this one is {kind!r})")
    return TestbedSpec(
        kind=kind, seed=seed, gpu_model=gpu_model,
        power_cap_w=None if power_cap_w is None else float(power_cap_w),
        kernel=kernel,
    )


def _parse_fault_rule(ctx: str, path: str, raw: object) -> FaultRuleSpec:
    data = _require_mapping(ctx, path, raw)
    _check_keys(ctx, path, data,
                ("mechanism", "rate", "kind", "t_start_frac", "t_end_frac"))
    mechanism = _get(ctx, path, data, "mechanism", (str,))
    rate = _get(ctx, path, data, "rate", (int, float), default=None)
    _check_run_value(ctx, f"{path}.rate", rate)
    kind = _get(ctx, path, data, "kind", (str,), default="")
    t_start_frac = float(_get(ctx, path, data, "t_start_frac",
                              (int, float), default=0.0))
    t_end_frac = _get(ctx, path, data, "t_end_frac", (int, float),
                      default=None)
    for label, value in (("t_start_frac", t_start_frac),
                         ("t_end_frac", t_end_frac)):
        if value is not None and not 0.0 <= float(value) <= 1.0:
            _fail(ctx, f"{path}.{label} must be in [0, 1], got {value}")
    if t_end_frac is not None and float(t_end_frac) <= t_start_frac:
        _fail(ctx, f"{path}: window [{t_start_frac}, {t_end_frac}) is empty")
    return FaultRuleSpec(
        mechanism=mechanism,
        rate=None if rate is None else float(rate),
        kind=kind, t_start_frac=t_start_frac,
        t_end_frac=None if t_end_frac is None else float(t_end_frac),
    )


def _parse_faults(ctx: str, raw: object) -> FaultPlanSpec:
    data = _require_mapping(ctx, "faults", raw)
    _check_keys(ctx, "faults", data, ("rules", "default_rate"))
    default_rate = float(_get(ctx, "faults", data, "default_rate",
                              (int, float), default=1.0))
    _check_run_value(ctx, "faults.default_rate", default_rate)
    rules_raw = _get(ctx, "faults", data, "rules", (list,))
    if not rules_raw:
        _fail(ctx, "faults.rules must name at least one rule")
    rules = tuple(
        _parse_fault_rule(ctx, f"faults.rules[{i}]", rule)
        for i, rule in enumerate(rules_raw)
    )
    return FaultPlanSpec(rules=rules, default_rate=default_rate)


def _parse_fleet(ctx: str, raw: object) -> FleetSpec:
    data = _require_mapping(ctx, "fleet", raw)
    _check_keys(ctx, "fleet", data, ("smoke",))
    return FleetSpec(smoke=_get(ctx, "fleet", data, "smoke", (bool,),
                                default=True))


def _registered_mechanisms() -> dict:
    # Importing the backends module registers the whole fleet; lazy so
    # schema validation of experiment/fleet packs stays device-free.
    import repro.core.moneq.backends  # noqa: F401
    from repro.mech import mechanisms

    return mechanisms()


def _check_mechanisms(ctx: str, spec_kind: str, testbed: TestbedSpec,
                      names: tuple[str, ...]) -> None:
    registry = _registered_mechanisms()
    offered = (tuple(registry) if testbed.kind == "fleet"
               else TESTBED_MECHANISMS[testbed.kind])
    seen: set[str] = set()
    for i, name in enumerate(names):
        if name not in registry:
            _fail(ctx, f"mechanisms[{i}]: unknown mechanism {name!r} "
                       f"(registered: {', '.join(registry)})")
        if name not in offered:
            _fail(ctx, f"mechanisms[{i}]: {name!r} is not available on "
                       f"the {testbed.kind!r} testbed "
                       f"(offers: {', '.join(offered)})")
        if name in seen:
            _fail(ctx, f"mechanisms[{i}]: duplicate mechanism {name!r}")
        seen.add(name)


def _check_experiments(ctx: str, names: tuple[str, ...]) -> None:
    from repro.exec.registry import EXPERIMENT_IDS

    for i, name in enumerate(names):
        if name not in EXPERIMENT_IDS:
            _fail(ctx, f"experiments[{i}]: unknown experiment {name!r} "
                       f"(registered: {', '.join(EXPERIMENT_IDS)})")


_TOP_KEYS = ("name", "kind", "summary", "duration_s", "seed", "interval_s",
             "mechanisms", "experiments", "testbed", "workload", "faults",
             "fleet")


def parse_scenario(data: dict, source: str = "") -> ScenarioSpec:
    """Validate one raw manifest mapping into a :class:`ScenarioSpec`.

    Raises :class:`~repro.errors.PackError` naming the offending field
    (dotted path into the manifest) on any unknown key, type mismatch,
    out-of-range value, or unknown mechanism/experiment/testbed name.
    """
    ctx = source or "<manifest>"
    if not isinstance(data, dict):
        _fail(ctx, f"manifest root must be a table, "
                   f"got {type(data).__name__}")
    name = _get(ctx, "", data, "name", (str,))
    if not name or "/" in name or name != name.strip():
        _fail(ctx, f"name must be a non-empty slug, got {name!r}")
    ctx = f"{name!r}" + (f" ({source})" if source else "")
    _check_keys(ctx, "", data, _TOP_KEYS)
    kind = _get(ctx, "", data, "kind", (str,))
    if kind not in KINDS:
        _fail(ctx, f"kind must be one of {', '.join(KINDS)}; got {kind!r}")
    summary = _get(ctx, "", data, "summary", (str,))
    duration_s = float(_get(ctx, "", data, "duration_s", (int, float),
                            default=12.0))
    _check_run_value(ctx, "duration_s", duration_s)
    seed = _get(ctx, "", data, "seed", (int,), default=0xC4A05)
    _check_run_value(ctx, "seed", seed)
    interval_s = _get(ctx, "", data, "interval_s", (int, float),
                      default=None)
    _check_run_value(ctx, "interval_s", interval_s)

    mechanisms_raw = _get(ctx, "", data, "mechanisms", (list,), default=[])
    for i, entry in enumerate(mechanisms_raw):
        if not isinstance(entry, str):
            _fail(ctx, f"mechanisms[{i}] must be a string, "
                       f"got {type(entry).__name__}")
    mechanisms = tuple(mechanisms_raw)
    experiments_raw = _get(ctx, "", data, "experiments", (list,), default=[])
    for i, entry in enumerate(experiments_raw):
        if not isinstance(entry, str):
            _fail(ctx, f"experiments[{i}] must be a string, "
                       f"got {type(entry).__name__}")
    experiments = tuple(experiments_raw)

    testbed = (_parse_testbed(ctx, data["testbed"]) if "testbed" in data
               else TestbedSpec())
    workload = (_parse_workload(ctx, data["workload"])
                if "workload" in data else None)
    faults = _parse_faults(ctx, data["faults"]) if "faults" in data else None
    fleet = _parse_fleet(ctx, data["fleet"]) if "fleet" in data else None

    # Kind-specific shape rules, each naming the out-of-place section.
    if kind in ("session", "chaos"):
        if experiments:
            _fail(ctx, f"experiments does not apply to kind {kind!r}")
        if fleet is not None:
            _fail(ctx, f"fleet does not apply to kind {kind!r}")
        if kind == "chaos" and faults is None:
            _fail(ctx, "kind 'chaos' requires a [faults] section")
        _check_mechanisms(ctx, kind, testbed, mechanisms)
        if workload is not None:
            _validate_components(ctx, workload)
    elif kind == "experiments":
        for section in ("testbed", "workload", "faults", "fleet"):
            if section in data:
                _fail(ctx, f"{section} does not apply to kind 'experiments'")
        if mechanisms:
            _fail(ctx, "mechanisms does not apply to kind 'experiments'")
        if not experiments:
            _fail(ctx, "kind 'experiments' requires a non-empty "
                       "experiments list")
        _check_experiments(ctx, experiments)
    else:  # fleet
        for section in ("testbed", "workload", "faults"):
            if section in data:
                _fail(ctx, f"{section} does not apply to kind 'fleet'")
        if mechanisms or experiments:
            _fail(ctx, "mechanisms/experiments do not apply to kind 'fleet'")
        if fleet is None:
            fleet = FleetSpec()

    if faults is not None:
        _check_mechanisms(ctx, kind, TestbedSpec(kind="fleet"),
                          tuple(dict.fromkeys(
                              r.mechanism for r in faults.rules)))

    return ScenarioSpec(
        name=name, kind=kind, summary=summary, duration_s=duration_s,
        seed=seed,
        interval_s=None if interval_s is None else float(interval_s),
        testbed=testbed, mechanisms=mechanisms, workload=workload,
        faults=faults, experiments=experiments, fleet=fleet, source=source,
    )


def _validate_components(ctx: str, workload: WorkloadSpec) -> None:
    from repro.workloads.base import Component

    known = set(Component.all())
    for i, phase in enumerate(workload.phases):
        for component, _ in phase.loads:
            if component not in known:
                _fail(ctx, f"workload.phases[{i}].loads.{component}: "
                           f"unknown component (see repro.workloads.base."
                           f"Component)")
