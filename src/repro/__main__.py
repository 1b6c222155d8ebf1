"""Command-line entry point: ``python -m repro <command> ...``.

Every command is one row of :data:`COMMANDS`: its words, its
positional arguments, its declared flags, a one-line summary and its
handler.  ``--help`` and each command's usage error are rendered from
those rows, and :func:`parse_flags` parses every command's flags.  A
name from ``python -m repro list`` regenerates that one experiment.
"""

from __future__ import annotations

import sys
import textwrap
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ChaosError, ExperimentExecutionError, PackError
from repro.exec.registry import EXPERIMENT_IDS, experiment_module
from repro.experiments import report as report_module

_PROG = "python -m repro"


class UsageError(Exception):
    """Bad command-line input; reported as ``<command>: <message>``
    with exit status 2."""


@dataclass(frozen=True)
class Flag:
    """One declared ``--flag``.  ``kind`` converts its value (``int``,
    ``float``, ``str``); a ``bool`` flag is a switch and takes none."""

    kind: type
    default: object = None
    metavar: str = "N"

    def usage(self, name: str) -> str:
        if self.kind is bool:
            return f"[--{name}]"
        return f"[--{name} {self.metavar}]"


@dataclass(frozen=True)
class Command:
    """One row of the command table."""

    words: tuple[str, ...]
    #: The positional part of the usage line; empty means the command
    #: takes no positional arguments.
    args: str
    summary: str
    #: ``handler(positional, **flags)`` -> exit status; flag names map
    #: to keywords with ``-`` turned into ``_``.
    handler: Callable[..., int]
    flags: dict[str, Flag] = field(default_factory=dict)

    def usage(self, indent: str = "") -> str:
        """The usage line, wrapped between whole tokens."""
        tokens = [*self.words] + ([self.args] if self.args else [])
        tokens += [flag.usage(name) for name, flag in self.flags.items()]
        lines = [indent + _PROG]
        for token in tokens:
            if len(lines[-1]) + 1 + len(token) > 76:
                lines.append(indent + " " * 4 + token)
            else:
                lines[-1] += " " + token
        return "\n".join(lines)


def parse_flags(args: list[str], flags: dict[str, Flag]
                ) -> tuple[dict[str, object], list[str]]:
    """Split ``args`` into declared flag values and positionals.

    Accepts ``--name value`` and ``--name=value``; a ``bool`` flag is
    a switch.  Returns ``(values, positional)`` with every declared
    flag present in ``values`` (its default when absent).  Unknown
    flags, missing values and values the flag's type rejects raise
    :class:`UsageError`.
    """
    values = {name.replace("-", "_"): flag.default
              for name, flag in flags.items()}
    positional: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if not arg.startswith("--"):
            positional.append(arg)
            continue
        name, has_value, text = arg[2:].partition("=")
        flag = flags.get(name)
        if flag is None:
            raise UsageError(f"unknown flag --{name}")
        key = name.replace("-", "_")
        if flag.kind is bool:
            if has_value:
                raise UsageError(f"--{name} takes no value")
            values[key] = True
            continue
        if not has_value:
            if i >= len(args):
                raise UsageError(f"--{name} needs a value")
            text = args[i]
            i += 1
        try:
            values[key] = flag.kind(text)
        except ValueError as exc:
            raise UsageError(f"--{name}: {exc}") from None
    return values, positional


# -- shared flag sets ---------------------------------------------------------

#: Run-time overrides of a scenario's manifest (``None``: keep it).
_OVERRIDE_FLAGS = {
    "seed": Flag(int),
    "duration": Flag(float, metavar="S"),
    "rate": Flag(float, metavar="R"),
}


# -- experiments --------------------------------------------------------------


def _list(args: list[str]) -> int:
    for name in EXPERIMENT_IDS:
        print(name)
    return 0


def _all(args: list[str]) -> int:
    for name in EXPERIMENT_IDS:
        print(f"==== {name} " + "=" * (60 - len(name)))
        experiment_module(name).main()
        print()
    return 0


def _report(args: list[str]) -> int:
    report_module.main()
    return 0


def _exec_run(args: list[str]) -> int:
    from repro.exec import Engine
    from repro.exec.registry import specs_for

    if not args:
        raise UsageError("name at least one experiment "
                         f"(see '{_PROG} list')")
    engine = Engine()
    blocks = engine.run(specs_for(args))
    for block in blocks.values():
        report_module.print_block(block)
    stats = engine.stats
    print(f"# {stats.executed} executed, {stats.wall_s * 1e3:.1f} ms")
    return 0


# -- observability and the bench registry -------------------------------------


def _obs_dump(args: list[str]) -> int:
    import repro.obs as obs
    from repro.obs import demo

    targets = args or list(demo.EXERCISES)
    unknown = [t for t in targets if t not in demo.EXERCISES]
    if unknown:
        raise UsageError(f"unknown obs target(s) {unknown}; "
                         f"have {sorted(demo.EXERCISES)}")
    for target in targets:
        summary = demo.EXERCISES[target]()
        detail = ", ".join(f"{k}={v:g}" for k, v in summary.items())
        print(f"# exercised {target}: {detail}")
    print()
    print(obs.dump())
    spans = obs.get_tracer().render()
    if spans:
        print("# spans")
        print(spans)
    return 0


def _bench(args: list[str], smoke: bool, check: bool) -> int:
    from repro import perfbench
    from repro.analysis.tables import format_table

    names = args or list(perfbench.BENCHES)
    unknown = [name for name in names if name not in perfbench.BENCHES]
    if unknown:
        raise UsageError(f"unknown bench(es) {unknown}; "
                         f"have {list(perfbench.BENCHES)}")
    profile = "smoke" if smoke else "full"
    path = perfbench.TRAJECTORY_PATH
    if check:
        failures, results = perfbench.check(names, profile, path)
        title = f"[repro bench] {profile} profile checked against {path}"
    else:
        failures, results = perfbench.record(names, profile, path)
        reps = perfbench.PROFILES[profile].reps
        title = (f"[repro bench] {profile} profile x{reps} -> "
                 + ("nothing written" if failures else f"wrote {path}"))
    rows = []
    for name, r in results.items():
        detail = ", ".join(
            f"{k}={v:g}" if isinstance(v, (int, float))
            and not isinstance(v, bool) else f"{k}={v}"
            for k, v in r.items()
            if k not in ("wall_s", "speedup_vs_scalar")
        )
        rows.append((name, f"{r['wall_s'] * 1e3:.1f} ms",
                     f"{r['speedup_vs_scalar']:.2f}x", detail))
    print(format_table(("bench", "wall", "vs scalar", "detail"), rows,
                       title=title))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


# -- the monitoring service ---------------------------------------------------


def _serve(args: list[str], host: str, port: int, racks: int, shards: int,
           sweeps: int) -> int:
    from repro.service import build_rig, serve

    machine, app, _ = build_rig(racks=racks, shards=shards, sweeps=sweeps)
    print(f"# rig: {racks} racks over "
          f"{machine.envdb.store.n_shards} shards, "
          f"{machine.envdb.store.records_ingested} records ingested")
    serve(app, host=host, port=port)
    return 0


def _service_smoke(args: list[str]) -> int:
    from repro.service import ServiceApp, ServiceClient, build_rig
    from repro.testbeds import fleet_node

    machine, app, client = build_rig(racks=4, shards=4, sweeps=2)
    _, backends = fleet_node(seed=0x510, hostname="smoke-host",
                             grant_msr_access=False)
    gated = ServiceClient(ServiceApp(machine.envdb.store,
                                     backends=backends))
    checks = []
    ready = client.get("/ready")
    checks.append(("/ready is 200", ready.status == 200))
    query = client.get("/v2/query/latest", {"table": "bpm"})
    payload = query.json() if query.status == 200 else {}
    checks.append(("planned query serves rows",
                   query.status == 200 and payload.get("count", 0) > 0
                   and payload.get("plan", {}).get("fan_out", 0) >= 1))
    denied = gated.get("/v2/mech/rapl_msr/read", {"t": 10.0})
    origin = (denied.json().get("error", {}).get("origin", "")
              if denied.status == 403 else "")
    checks.append(("unprivileged msr read is a structured 403",
                   denied.status == 403
                   and origin == "repro.host.permissions"))
    stream = client.get("/v2/stream/tail", {
        "table": "bpm", "cursor": 0, "batches": 1})
    lines = list(stream.lines())
    checks.append(("streaming tail opens and ends",
                   stream.status == 200
                   and lines[0].get("marker") == "open"
                   and lines[-1].get("marker") == "end"))
    for label, ok in checks:
        print(f"{'ok' if ok else 'FAIL'} - {label}")
    return 0 if all(ok for _, ok in checks) else 1


# -- mechanisms, chaos and packs ----------------------------------------------


def _mech_list(args: list[str]) -> int:
    from repro.analysis.tables import format_table
    from repro.core.moneq.backends import mechanisms

    rows = []
    for spec in mechanisms().values():
        rows.append((
            spec.name,
            spec.platform,
            spec.channel.name,
            f"{spec.read_latency_s * 1e3:.2f} ms"
            + (f" ({spec.queries_per_read}q)"
               if spec.queries_per_read > 1 else ""),
            f"{spec.min_interval_s * 1e3:.0f} ms",
            str(spec.capability.capability_count),
            str(len(spec.fields)),
        ))
    print(format_table(
        ("mechanism", "platform", "channel", "latency/read",
         "min interval", "caps", "fields"),
        rows,
        title=f"[repro mech list] {len(rows)} declared vendor paths",
    ))
    return 0


def _chaos_list(args: list[str]) -> int:
    from repro.analysis.tables import format_table
    from repro.packs import chaos_packs

    rows = [(spec.name, f"{spec.faults.default_rate:g}", spec.summary)
            for spec in chaos_packs().values()]
    print(format_table(("scenario", "rate", "summary"), rows,
                       title=f"[repro chaos list] {len(rows)} scenarios"))
    return 0


def _chaos_run(args: list[str], seed: int | None, duration: float | None,
               rate: float | None) -> int:
    from repro.analysis.tables import format_table
    from repro.obs import dump
    from repro.packs import chaos_packs, execute_scenario

    catalog = chaos_packs()
    if len(args) != 1:
        raise UsageError(f"name exactly one scenario "
                         f"(have {sorted(catalog)})")
    spec = catalog.get(args[0])
    if spec is None:
        raise ChaosError(f"unknown chaos scenario {args[0]!r}; "
                         f"have {sorted(catalog)}")
    # Unset overrides fall back to the manifest's own seed and duration.
    run = execute_scenario(spec, seed=seed, duration_s=duration, rate=rate)
    if run.error_deltas:
        rows = [(mechanism, kind, str(count)) for (mechanism, kind), count
                in sorted(run.error_deltas.items())]
        print(format_table(("mechanism", "kind", "errors"), rows,
                           title="[chaos] repro_collector_errors_total "
                                 "deltas"))
    else:
        print("# no collector errors (every fault recovered)")
    print("\n".join(line for line in dump().splitlines()
                    if line.startswith(("repro_chaos", "repro_retry"))))
    print(run.summary_line())
    return 0


def _pack_list(args: list[str]) -> int:
    from repro import packs
    from repro.analysis.tables import format_table

    try:
        catalog = packs.all_packs()
    except PackError as exc:  # a broken catalog is not a usage error
        print(f"pack list: {exc}", file=sys.stderr)
        return 1
    rows = []
    for spec in catalog.values():
        if spec.kind == "experiments":
            detail = f"{len(spec.experiments)} experiments"
        elif spec.kind == "fleet":
            detail = "smoke sweep" if spec.fleet.smoke else "full sweep"
        else:
            detail = (f"{spec.testbed.kind} / "
                      f"{','.join(spec.mechanisms) or 'all'}")
        rows.append((spec.name, spec.kind, detail, spec.summary))
    print(format_table(
        ("pack", "kind", "detail", "summary"), rows,
        title=f"[repro pack list] {len(rows)} packs in "
              f"{packs.packs_dir()}"))
    return 0


def _pack_show(args: list[str], json: bool) -> int:
    import json as json_module

    from repro import packs
    from repro.analysis.tables import format_table

    if len(args) != 1:
        raise UsageError("name exactly one pack")
    raw = packs.run._resolve(args[0])
    spec = packs.scenario_from_mapping(raw, source=args[0])
    if json:
        print(json_module.dumps(raw, indent=2, sort_keys=True))
        return 0
    rows = [
        ("kind", spec.kind),
        ("summary", spec.summary),
        ("seed", str(spec.seed)),
        ("duration", f"{spec.duration_s:g} s"),
    ]
    if spec.kind in ("session", "chaos"):
        rows.append(("testbed", spec.testbed.kind))
        rows.append(("mechanisms",
                     ", ".join(spec.mechanisms) or "(testbed order)"))
        rows.append(("interval",
                     f"{spec.interval_s:g} s" if spec.interval_s
                     is not None else "(mechanism floor)"))
        if spec.workload is not None:
            rows.append(("workload",
                         f"{spec.workload.name}, "
                         f"{len(spec.workload.phases)} phases"))
        if spec.faults is not None:
            rows.append(("fault rules", str(len(spec.faults.rules))))
    elif spec.kind == "experiments":
        rows.append(("experiments", ", ".join(spec.experiments)))
    elif spec.kind == "fleet":
        rows.append(("profile", "smoke" if spec.fleet.smoke else "full"))
    print(format_table(("field", "value"), rows,
                       title=f"[repro pack show] {spec.name}"))
    return 0


def _pack_run(args: list[str], smoke: bool, json: bool, seed: int | None,
              duration: float | None, rate: float | None) -> int:
    import json as json_module

    from repro import packs
    from repro.experiments.report import render_block

    names = args
    if smoke:
        if names:
            raise UsageError("--smoke runs the fixed CI pair; "
                             "drop the pack names")
        names = list(packs.SMOKE_PACKS)
    if not names:
        raise UsageError(f"name at least one pack (see '{_PROG} pack list')")
    documents = []
    for name in names:
        result = packs.run_pack(name, seed=seed, duration_s=duration,
                                rate=rate)
        if json:
            documents.append({
                "pack": result.spec.name,
                "kind": result.spec.kind,
                "exp_id": result.exp_id or None,
                "payload": result.payloads.get(result.exp_id),
                "blocks": {exp_id: render_block(block)
                           for exp_id, block in result.blocks.items()},
            })
            continue
        for block in result.blocks.values():
            report_module.print_block(block)
        stats = result.stats
        print(f"# pack {result.spec.name}: {stats.executed} executed, "
              f"{stats.wall_s * 1e3:.1f} ms")
    if json:
        print(json_module.dumps(documents, indent=2, sort_keys=True))
    return 0


# -- the table ----------------------------------------------------------------


def _experiment(args: list[str]) -> int:
    if args[0] not in EXPERIMENT_IDS:
        raise UsageError(f"unknown experiment {args[0]!r}; "
                         f"try '{_PROG} list'")
    experiment_module(args[0]).main()
    return 0


#: The catch-all row: a first word no other row claims names an
#: experiment.
_EXPERIMENT = Command((), "<experiment>",
                      "regenerate one table/figure: its data, then its "
                      "EXPERIMENTS.md block", _experiment)


COMMANDS: tuple[Command, ...] = (
    Command(("list",), "", "available experiments", _list),
    _EXPERIMENT,
    Command(("all",), "", "regenerate every table/figure", _all),
    Command(("report",), "", "print EXPERIMENTS.md content", _report),
    Command(("exec", "run"), "<id...>",
            "run experiments through the engine", _exec_run),
    Command(("obs", "dump"), "[target...]",
            "run the exercises (default: all), dump metrics + spans",
            _obs_dump),
    Command(("bench",), "[name...]",
            "measure the bench registry (default: every row) and record "
            "medians + spread in BENCH_trajectory.json (--smoke: the "
            "reduced profile; --check: hold one run to the floors and the "
            "committed baselines, write nothing, exit 1 on a miss)",
            _bench, {"smoke": Flag(bool, False), "check": Flag(bool, False)}),
    Command(("serve",), "",
            "stand up a populated simulated machine and serve the live "
            "monitoring query service on it", _serve,
            {"host": Flag(str, "127.0.0.1", "H"), "port": Flag(int, 8340, "P"),
             "racks": Flag(int, 64), "shards": Flag(int, 64),
             "sweeps": Flag(int, 2)}),
    Command(("service", "smoke"), "",
            "boot in-process: /ready, one planned query, one 403 (the CI "
            "gate, exit 1 on any miss)", _service_smoke),
    Command(("mech", "list"), "",
            "the declared mechanism registry (channel, latency, min "
            "interval, capabilities per vendor path)", _mech_list),
    Command(("chaos", "list"), "", "the chaos scenario catalog",
            _chaos_list),
    Command(("chaos", "run"), "<scenario>",
            "run one fault-injection scenario over the fleet; the summary "
            "line is byte-stable for a given (scenario, seed)", _chaos_run,
            _OVERRIDE_FLAGS),
    Command(("pack", "list"), "", "the scenario-pack catalog", _pack_list),
    Command(("pack", "show"), "<name>", "one validated manifest",
            _pack_show, {"json": Flag(bool, False)}),
    Command(("pack", "run"), "<name...>",
            "compile manifests onto the exec engine and run them "
            "(--smoke: the fixed CI pair; --json: payloads as JSON)",
            _pack_run,
            {"smoke": Flag(bool, False), "json": Flag(bool, False),
             **_OVERRIDE_FLAGS}),
)


def _render_help() -> str:
    lines = [f"usage: {_PROG} <command> [args]", ""]
    for command in COMMANDS:
        lines.append(command.usage(indent="  "))
        lines += textwrap.wrap(command.summary, width=76,
                               initial_indent=" " * 8,
                               subsequent_indent=" " * 8)
    return "\n".join(lines)


def _render_usage(verb: str) -> str:
    """Every usage line of ``verb``, as one usage message."""
    usages = [c.usage() for c in COMMANDS if c.words[:1] == (verb,)]
    return "usage: " + "\n".join(usages).replace("\n", "\n       ")


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or args[0] in ("-h", "--help", "help"):
        print(_render_help())
        return 0
    command = next((c for c in COMMANDS if c.words
                    and c.words == tuple(args[:len(c.words)])), None)
    if command is None:
        if any(c.words[:1] == (args[0],) for c in COMMANDS):
            print(_render_usage(args[0]), file=sys.stderr)
            return 2
        command = _EXPERIMENT
    name = " ".join(command.words) or _PROG
    try:
        flags, positional = parse_flags(args[len(command.words):],
                                        command.flags)
        if positional and not command.args:
            raise UsageError(f"unexpected argument(s) {positional}")
        return command.handler(positional, **flags)
    except (UsageError, PackError, ChaosError) as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return 2
    except ExperimentExecutionError as exc:
        print(f"{name} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
