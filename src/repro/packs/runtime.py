"""Executing a validated scenario pack — and the engine module contract.

This module is two faces of one implementation:

* :func:`execute_scenario` is the **live** path: stand up the declared
  testbed, schedule the workload, run one MonEQ session (optionally
  under the pack's fault plan) and hand back live objects — the
  :class:`~repro.chaos.faults.FaultPlan` with its timeline, the output
  files, the collector-error deltas.  ``repro chaos run`` calls it
  with a pack from :func:`~repro.packs.catalog.chaos_packs` and prints
  the :meth:`ScenarioRun.summary_line` it returns.
* ``run_part`` / ``render_block`` implement the exec engine's module
  contract, so a compiled pack (`repro.packs.run.compile_spec`)
  runs through the same engine as the paper experiments.  The
  payload is the JSON-serializable projection of a
  :class:`ScenarioRun`.

Fault windows in a manifest are *fractions* of the run
(``t_start_frac``), resolved against the effective duration here —
``0.4`` of a 12 s run is the same ``t_start=4.8`` rule the legacy
chaos catalog built, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.chaos.faults import FaultEvent, FaultPlan, FaultRule
from repro.errors import PackError
from repro.exec.spec import ExperimentReport
from repro.packs.schema import (
    FaultPlanSpec,
    ScenarioSpec,
    TestbedSpec,
    WorkloadSpec,
    check_overrides,
)


@dataclass(frozen=True)
class PackRunConfig:
    """The engine-facing config of a compiled pack: the canonical
    manifest text plus the run-time overrides.

    ``scenario`` is the validated manifest, handed over by the compiler
    so a run does not validate it again.  It is not part of the config's
    identity (``compare=False``): that stays the manifest text."""

    manifest: str
    seed: int
    duration_s: float
    scenario: ScenarioSpec = field(compare=False, repr=False)
    rate: float | None = None


@dataclass
class ScenarioRun:
    """Everything one live scenario execution produced.  The fault
    timeline and the summary line are a chaos run's (``plan`` set)."""

    name: str
    kind: str
    seed: int
    duration_s: float
    interval_s: float
    ticks: int
    plan: FaultPlan | None
    #: Output path -> file content for every agent of the session.
    outputs: dict[str, str]
    #: COLLECTOR_ERRORS deltas over the run, (mechanism, kind) -> count.
    error_deltas: dict[tuple[str, str], int]

    @property
    def timeline(self) -> list[FaultEvent]:
        return self.plan.timeline

    def timeline_lines(self) -> list[str]:
        return self.plan.timeline_lines()

    def summary_line(self) -> str:
        """One stable line: equal seeds render equal bytes."""
        s = self.plan.stats
        return (f"[repro chaos run] scenario={self.name} "
                f"seed={self.seed} interval_s={self.interval_s:.3f} "
                f"ticks={self.ticks} faults={s.faults} "
                f"recovered={s.recovered} dark={s.dark} "
                f"retries={s.retries} backoff_s={s.backoff_s:.6f} "
                f"breaker_opens={s.breaker_opens} stale={s.stale}")


# -- fault plans ------------------------------------------------------------


def fault_rules(faults: FaultPlanSpec, duration_s: float,
                rate: float | None = None) -> tuple[FaultRule, ...]:
    """Resolve a pack's rule specs against a concrete run window.

    ``rate=None`` means "the pack's default_rate"; an explicit rate
    (the CLI's ``--rate``) replaces it for every rate-less rule.
    """
    effective = faults.default_rate if rate is None else rate
    return tuple(
        FaultRule(
            rule.mechanism,
            rate=effective if rule.rate is None else rule.rate,
            kind=rule.kind,
            t_start=rule.t_start_frac * duration_s,
            t_end=(math.inf if rule.t_end_frac is None
                   else rule.t_end_frac * duration_s),
        )
        for rule in faults.rules
    )


def build_plan(faults: FaultPlanSpec, seed: int, duration_s: float,
               rate: float | None = None) -> FaultPlan:
    return FaultPlan(seed=seed,
                     rules=fault_rules(faults, duration_s, rate))


# -- testbeds and workloads --------------------------------------------------


def build_workload(spec: WorkloadSpec):
    """The pack's phased workload as a live
    :class:`~repro.workloads.base.PhasedWorkload`."""
    from repro.workloads.base import Phase, PhasedWorkload

    phases = [Phase(p.name, p.duration_s, dict(p.loads))
              for p in spec.phases]
    return PhasedWorkload(spec.name, phases)


def build_testbed(testbed: TestbedSpec, seed: int,
                  workload: WorkloadSpec | None = None):
    """Stand up the declared rig; returns ``(node, backends)`` with
    ``backends`` in the testbed's canonical mechanism order.

    The workload (when declared) is scheduled on every attached device
    that carries a power board — components are device-namespaced, so
    a board simply idles through loads it does not own.
    """
    from repro import testbeds

    tb_seed = testbed.seed if testbed.seed is not None else seed
    load = build_workload(workload) if workload is not None else None

    if testbed.kind == "fleet":
        node, backends = testbeds.fleet_node(seed=tb_seed)
    elif testbed.kind == "gpu":
        from repro.core.moneq.backends import NvmlBackend
        from repro.nvml.device import KEPLER_K20, KEPLER_K40

        model = KEPLER_K40 if testbed.gpu_model == "k40" else KEPLER_K20
        node, gpu, _ = testbeds.gpu_node(seed=tb_seed, model=model)
        if testbed.power_cap_w is not None:
            gpu.set_power_limit(testbed.power_cap_w, node.clock.now)
        backends = {"nvml": NvmlBackend(gpu)}
    elif testbed.kind == "phi":
        from repro.core.moneq.backends import (
            PhiIpmbBackend,
            PhiMicrasBackend,
            PhiMicsmcBackend,
            PhiSysMgmtBackend,
        )

        rig = testbeds.phi_node(seed=tb_seed)
        node = rig.node
        backends = {
            "sysmgmt": PhiSysMgmtBackend(rig.sysmgmt),
            "micras": PhiMicrasBackend(rig.micras),
            "ipmb": PhiIpmbBackend(rig.bmc),
            "micsmc": PhiMicsmcBackend(rig.smc),
        }
    elif testbed.kind == "rapl":
        start_s = workload.start_s if workload is not None else 5.0
        node, backends = _rapl_testbed(testbed, tb_seed, load, start_s)
        load = None  # rapl_node scheduled it on the socket already
    else:  # pragma: no cover - schema rejects unknown kinds
        raise PackError(f"unknown testbed kind {testbed.kind!r}")

    if load is not None:
        t_start = workload.start_s
        for kind in node.device_kinds():
            for device in node.devices(kind):
                board = getattr(device, "board", None)
                if board is not None:
                    board.schedule(load, t_start=t_start)
    return node, backends


def _rapl_testbed(testbed: TestbedSpec, seed: int, load, start_s: float):
    from repro import testbeds
    from repro.core.moneq.backends import (
        RaplMsrBackend,
        RaplPerfBackend,
        RaplPowercapBackend,
    )
    from repro.rapl.perf_event import PerfEventRapl
    from repro.rapl.powercap import install_powercap_driver

    node, _ = testbeds.rapl_node(
        seed=seed, kernel=testbed.kernel, workload=load,
        workload_start=start_s,
    )
    package = node.devices("cpu")[0]
    install_powercap_driver(node)
    node.kernel.modprobe("intel_rapl")
    backends = {
        "rapl_msr": RaplMsrBackend(package, node=node),
        "rapl_powercap": RaplPowercapBackend(node),
        "rapl_perf": RaplPerfBackend(PerfEventRapl(node, package)),
    }
    return node, backends


def select_backends(spec: ScenarioSpec, backends: dict) -> list:
    """The session's backend list: manifest order when the pack names
    mechanisms, testbed order when it leaves the list empty."""
    if not spec.mechanisms:
        return list(backends.values())
    missing = [m for m in spec.mechanisms if m not in backends]
    if missing:  # pragma: no cover - schema validates availability
        raise PackError(
            f"pack {spec.name!r}: testbed offers no {missing} "
            f"(have {sorted(backends)})")
    return [backends[m] for m in spec.mechanisms]


# -- the live path ----------------------------------------------------------


def execute_scenario(spec: ScenarioSpec, seed: int | None = None,
                     duration_s: float | None = None,
                     rate: float | None = None,
                     plan: FaultPlan | None = None) -> ScenarioRun:
    """Run one session/chaos scenario live; returns a :class:`ScenarioRun`.

    A caller-supplied ``plan`` (the chaos byte-identity tests pass
    their own) wins over the pack's fault section; otherwise the plan
    is built from the manifest, seeded with the effective seed.
    Overrides are held to the manifest's own bounds (a
    :class:`~repro.errors.PackError` naming the field).
    """
    from repro.core.moneq.config import MoneqConfig
    from repro.core.moneq.session import MoneqSession
    from repro.obs.instruments import COLLECTOR_ERRORS

    if spec.kind not in ("session", "chaos"):
        raise PackError(
            f"pack {spec.name!r}: kind {spec.kind!r} is not a live "
            f"session scenario")
    check_overrides(spec.name, seed=seed, duration_s=duration_s, rate=rate)
    seed = spec.seed if seed is None else seed
    duration_s = spec.duration_s if duration_s is None else duration_s
    if plan is None and spec.faults is not None:
        plan = build_plan(spec.faults, seed=seed, duration_s=duration_s,
                          rate=rate)

    node, backends = build_testbed(spec.testbed, seed, spec.workload)
    selected = select_backends(spec, backends)
    errors_before = COLLECTOR_ERRORS.samples()
    config = MoneqConfig(polling_interval_s=spec.interval_s, fault_plan=plan)
    session = MoneqSession(selected, node.events, config=config,
                           node_count=1, vfs=node.vfs)
    node.events.run_until(node.clock.now + duration_s)
    result = session.finalize()

    error_deltas: dict[tuple[str, str], int] = {}
    for key, value in COLLECTOR_ERRORS.samples().items():
        delta = value - errors_before.get(key, 0.0)
        if delta:
            error_deltas[(key[0], key[1])] = int(delta)
    outputs = {path: node.vfs.read_text(path)
               for path in result.output_paths}
    return ScenarioRun(
        name=spec.name, kind=spec.kind, seed=seed, duration_s=duration_s,
        interval_s=session.interval_s, ticks=result.overhead.ticks,
        plan=plan, outputs=outputs, error_deltas=error_deltas,
    )


# -- the engine module contract ---------------------------------------------


def scenario_payload(spec: ScenarioSpec, run: ScenarioRun) -> dict:
    """JSON projection of a live run — the task's engine payload."""
    payload: dict = {
        "kind": spec.kind,
        "pack": spec.name,
        "summary": spec.summary,
        "seed": run.seed,
        "duration_s": run.duration_s,
        "interval_s": run.interval_s,
        "ticks": run.ticks,
        "outputs": [[path, run.outputs[path]]
                    for path in sorted(run.outputs)],
        "error_deltas": [[mechanism, kind, count]
                         for (mechanism, kind), count
                         in sorted(run.error_deltas.items())],
    }
    if run.plan is not None:
        stats = run.plan.stats
        payload["stats"] = {
            "faults": stats.faults,
            "recovered": stats.recovered,
            "dark": stats.dark,
            "stale": stats.stale,
            "retries": stats.retries,
            "backoff_s": stats.backoff_s,
            "breaker_opens": stats.breaker_opens,
        }
        payload["timeline"] = run.plan.timeline_lines()
    return payload


def run_part(part: str, config: PackRunConfig) -> dict:
    """Engine contract: execute the compiled pack's single part."""
    spec = config.scenario
    if spec.kind == "fleet":
        from repro import perfbench

        fleet = perfbench.BENCHES["fleet"].measure(
            "smoke" if spec.fleet.smoke else "full")
        return {"kind": "fleet", "pack": spec.name,
                "summary": spec.summary, "fleet": fleet}
    run = execute_scenario(spec, seed=config.seed,
                           duration_s=config.duration_s, rate=config.rate)
    return scenario_payload(spec, run)


def render_block(parts: dict[str, dict]) -> ExperimentReport:
    """Engine contract: one report block from the single-part payload."""
    payload = parts["all"]
    name = payload["pack"]
    if payload["kind"] == "fleet":
        rows = [(key, "—",
                 str(value) if isinstance(value, bool) else f"{value:g}")
                for key, value in payload["fleet"].items()]
    else:
        errors = sum(count for _, _, count in payload["error_deltas"])
        rows = [
            ("polling interval", "—", f"{payload['interval_s']:.3f} s"),
            ("collection ticks", "—", str(payload["ticks"])),
            ("output files", "—", str(len(payload["outputs"]))),
            ("collector errors", "—", str(errors)),
        ]
        stats = payload.get("stats")
        if stats is not None:
            rows += [
                ("faults injected", "—", str(stats["faults"])),
                ("recovered", "—", str(stats["recovered"])),
                ("dark reads", "—", str(stats["dark"])),
                ("stale reads", "—", str(stats["stale"])),
                ("retries", "—", str(stats["retries"])),
                ("backoff", "—", f"{stats['backoff_s']:.6f} s"),
                ("breaker opens", "—", str(stats["breaker_opens"])),
            ]
    return ExperimentReport(
        exp_id=f"pack:{name}",
        title=payload["summary"],
        rows=rows,
        notes=f"seed {payload['seed']}, kind {payload['kind']}"
              if payload["kind"] != "fleet" else "wall-clock timed",
    )
