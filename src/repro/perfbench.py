"""The bench registry: wall-clock benches of the simulator's hot paths.

These measure the *simulator's* speed, not the modeled hardware.  Every
bench is one row of :data:`BENCHES`: a callable, its keyword sizes for
the ``full`` and ``smoke`` profiles, and an absolute bound per profile
on the figure it reports (:attr:`Bench.metric`): a floor on a ratio,
or a ceiling on a cost.  Every row's committed baseline lives in one
trajectory file, :data:`TRAJECTORY_PATH`, shaped ``{profile: {bench:
{wall_s, <metric>, spread, ...detail}}}``.

``python -m repro bench [name...] [--smoke] [--check]`` is the one
front door.  Without ``--check`` it measures the named rows (default:
all) :attr:`Profile.reps` times and records each row's median and
spread; with it, one run per row is held to :func:`check`'s floors and
nothing is written.  ``benchmarks/bench_registry.py`` holds a live
full-profile run of every row to the same table.

Every bench returns a dict whose first two keys are ``wall_s`` (the
optimized path's wall) and its metric — ``speedup_vs_scalar`` (the
reference wall over the optimized wall, where "scalar" is the
pre-optimization path) for most rows; ``service`` reports
``sustained_qps``, and the cost rows ``moneq_full_session`` and
``pack_overhead`` report ``block_us_per_tick`` and ``pack_ms``.  Extra
keys are detail.  A ``byte_identical`` key, where present, must be
True.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.bgq.machine import MIRA_RACKS
from repro.core import moneq
from repro.core.moneq.backends import NvmlBackend
from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.session import MoneqSession
from repro.nvml.device import NVML_POWER_UPDATE_S
from repro.runtime.launcher import Launcher
from repro.runtime.ops import ANY_SOURCE, Compute, Recv, Send
from repro.service.loadgen import bench_service
from repro.workloads.vectoradd import VectorAddWorkload

#: Where every row's committed baseline lives, both profiles.
TRAJECTORY_PATH = "BENCH_trajectory.json"


def _wall(fn: Callable[[], object]) -> tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


class _Paired(NamedTuple):
    ratio: float
    reference_s: float
    candidate_s: float
    reference: object
    candidate: object
    #: Median per-pair ``candidate - reference`` wall.
    extra_s: float


def _paired(reference: Callable[[], object], candidate: Callable[[], object],
            pairs: int) -> _Paired:
    """Time ``reference`` then ``candidate``, ``pairs`` times over, and
    return the median per-pair ``reference / candidate`` wall ratio
    (plus the median walls, the last pair's results and the median
    per-pair ``candidate - reference`` difference).

    Both sides of a pair see the same machine: a noisy neighbour or a
    frequency step lands on one pair, and the median drops that pair.
    Timing every reference run and then every candidate run instead
    bills such drift to whichever side ran second.  The cyclic garbage
    collector is off while the pairs run (as under :mod:`timeit`): a
    collection would otherwise land on whichever side crossed its
    allocation threshold."""
    ref_walls, cand_walls = [], []
    gc.collect()
    gc.disable()
    try:
        for _ in range(pairs):
            ref_s, ref = _wall(reference)
            cand_s, cand = _wall(candidate)
            ref_walls.append(ref_s)
            cand_walls.append(cand_s)
    finally:
        gc.enable()
    ratio = statistics.median(r / c for r, c in zip(ref_walls, cand_walls))
    extra = statistics.median(c - r for r, c in zip(ref_walls, cand_walls))
    return _Paired(ratio, statistics.median(ref_walls),
                   statistics.median(cand_walls), ref, cand, extra)


def _nvml_session(agents: int, ticks: int, block_ticks: int, seed: int):
    """``agents`` NVML backends over one shared (cheap) GPU device, with
    just enough buffer for ``ticks`` records each."""
    from repro import testbeds

    node, gpu, _ = testbeds.gpu_node(seed=seed)
    gpu.board.schedule(VectorAddWorkload(), t_start=0.0)
    backends = []
    for i in range(agents):
        backend = NvmlBackend(gpu)
        backend.label = f"{backend.label}.{i}"
        backends.append(backend)
    config = MoneqConfig(polling_interval_s=NVML_POWER_UPDATE_S,
                         buffer_slots=ticks + 64, block_ticks=block_ticks)
    session = MoneqSession(backends, node.events, config=config, vfs=node.vfs)
    return node, session


def _nvml_outputs(agents: int, ticks: int, block_ticks: int, seed: int):
    node, session = _nvml_session(agents, ticks, block_ticks, seed)
    node.events.run_until(ticks * NVML_POWER_UPDATE_S + NVML_POWER_UPDATE_S / 2)
    result = session.finalize()
    files = {p: node.vfs.read_text(p) for p in result.output_paths}
    return node.clock.now, result.overhead.ticks, files


def bench_moneq_block(agents: int = 1024, ticks: int = 10_000,
                      scalar_ticks: int = 100, seed: int = 0xB10C) -> dict:
    """The acceptance bench: a 1024-agent, 10k-tick NVML session with
    full lookahead versus one-tick blocks (``block_ticks=1``, measured
    on a short slice and extrapolated — running 10M one-row reads
    outright is the very cost the lookahead removes).  Byte-identity is
    asserted on a reduced configuration where running both in full is
    cheap.

    Measured with the channel cache bypassed: the 1024 agents share
    one device, so cache hits would dominate both sides and the ratio
    would stop measuring the block engine (the cache's own win is the
    ``fleet`` row's ``cache_reduction``, floored separately)."""
    from repro.mech.cache import channel_cache_disabled

    with channel_cache_disabled():
        horizon = ticks * NVML_POWER_UPDATE_S + NVML_POWER_UPDATE_S / 2
        node, session = _nvml_session(agents, ticks, 4096, seed)
        wall_block, _ = _wall(lambda: node.events.run_until(horizon))
        if session.agents[0].count != ticks:
            raise AssertionError(
                f"block run collected {session.agents[0].count} ticks, "
                f"wanted {ticks}"
            )
        # Finalized (untimed), a session's armed timer no longer holds
        # it in a cycle: it is freed by reference counting.
        session.finalize()

        slice_horizon = scalar_ticks * NVML_POWER_UPDATE_S + NVML_POWER_UPDATE_S / 2
        node, session = _nvml_session(agents, scalar_ticks, 1, seed)
        wall_slice, _ = _wall(lambda: node.events.run_until(slice_horizon))
        if session.agents[0].count != scalar_ticks:
            raise AssertionError(
                f"one-tick slice collected {session.agents[0].count} ticks, "
                f"wanted {scalar_ticks}"
            )
        session.finalize()
        scalar_est = wall_slice * (ticks / scalar_ticks)

        byte_identical = (_nvml_outputs(8, 400, 1, seed)
                          == _nvml_outputs(8, 400, 4096, seed))
    return {
        "wall_s": wall_block,
        "speedup_vs_scalar": scalar_est / wall_block,
        "scalar_wall_s": scalar_est,
        "agents": agents,
        "ticks": ticks,
        "byte_identical": byte_identical,
    }


def bench_moneq_full_session(duration_s: float = 60.0, runs: int = 3,
                             seed: int = 96) -> dict:
    """An ordinary ``profile_run`` (RAPL at the 60 ms hardware minimum)
    with full lookahead, run ``runs`` times.

    ``block_us_per_tick`` is the median session wall per tick in
    microseconds.  It is absolute on purpose: a ratio against one-tick
    blocks fell whenever per-tick work both sides share got faster."""
    from repro import testbeds

    def profile():
        node, _ = testbeds.rapl_node(seed=seed)
        return moneq.profile_run(
            node, duration_s=duration_s,
            config=MoneqConfig(polling_interval_s=0.06, block_ticks=4096))

    profile()  # warm imports and testbed caches out of the timing
    walls = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(runs):
            wall, result = _wall(profile)
            walls.append(wall)
    finally:
        gc.enable()
    wall = statistics.median(walls)
    ticks = result.overhead.ticks
    return {
        "wall_s": wall,
        "block_us_per_tick": wall / ticks * 1e6,
        "ticks": ticks,
    }


def bench_launcher_fanin(size: int = 4096, nbytes: int = 64,
                         pairs: int = 3) -> dict:
    """The acceptance bench for the scheduler: an ANY_SOURCE fan-in of
    ``size`` ranks into rank 0 — the worst case for a full-scan
    scheduler (O(n) rescan per step, O(n) source scan per receive).

    ``speedup_vs_scalar`` is the scaling efficiency ``8 x wall(fan-in of
    size/8) / wall(fan-in of size)``: ~1 while each scheduling step
    stays O(log n), falling toward 1/8 when a step goes back to O(n)."""

    def program(ctx):
        if ctx.rank == 0:
            total = 0
            for _ in range(ctx.size - 1):
                total += yield Recv(source=ANY_SOURCE, tag=1)
            return total
        yield Compute(1e-6 * ((ctx.rank * 13) % 7 + 1))
        yield Send(dest=0, payload=ctx.rank, tag=1, nbytes=nbytes)

    eighth = size // 8
    timed = _paired(lambda: Launcher(program, size=eighth).run(),
                    lambda: Launcher(program, size=size).run(), pairs)
    for results in (timed.reference, timed.candidate):
        n = len(results)
        if results[0].value != n * (n - 1) // 2:
            raise AssertionError(f"fan-in of {n} ranks lost a message")
    return {
        "wall_s": timed.candidate_s,
        "speedup_vs_scalar": 8 * timed.ratio,
        "eighth_wall_s": timed.reference_s,
        "ranks": size,
    }


def bench_chaos_hotpath(rows: int = 200_000, pairs: int = 5,
                        check_rows: int = 4_096, seed: int = 0xC4A0) -> dict:
    """Guard for the fault-injection seam: with no :class:`FaultPlan`,
    ``Mechanism.read_block`` must stay a thin wrapper over the raw
    source collect — the chaos hook is one ``is None`` check, never
    per-row work.

    ``speedup_vs_scalar`` here is ``wall(source.collect) /
    wall(read_block)``: the fraction of a retry-free block read spent
    below the seam.  It sits near 1x when the wrapper is thin and
    collapses toward 0x if the disabled chaos path ever grows per-row
    overhead — the floor catches exactly that regression.  Byte-identity
    of a read under a zero-rate plan against the plan-less path is
    checked on a reduced grid.
    """
    import numpy as np

    from repro import testbeds
    from repro.chaos.faults import FaultPlan, FaultRule
    from repro.mech.cache import channel_cache_disabled

    node, gpu, _ = testbeds.gpu_node(seed=seed)
    gpu.board.schedule(VectorAddWorkload(), t_start=0.0)
    backend = NvmlBackend(gpu)
    times = np.arange(rows, dtype=np.float64) * NVML_POWER_UPDATE_S

    with channel_cache_disabled():
        # The channel cache would turn the re-timed reads into pure
        # lookups; this bench measures the chaos seam, so it runs on
        # the uncached path (the cache has its own ablation bench).
        backend.read_block(times)  # warm both paths out of the timing
        timed = _paired(lambda: backend.source.collect(times),
                        lambda: backend.read_block(times), pairs)

        check_times = times[:check_rows]
        disabled = backend.read_block(check_times)
        zero_plan = FaultPlan(seed=seed, rules=(FaultRule("nvml", rate=0.0),))
        wall_zero, under_plan = _wall(
            lambda: backend.read_block(check_times, plan=zero_plan))
    return {
        "wall_s": timed.candidate_s,
        "speedup_vs_scalar": timed.ratio,
        "collect_wall_s": timed.reference_s,
        "zero_rate_wall_s": wall_zero,
        "rows": rows,
        "byte_identical": under_plan.tobytes() == disabled.tobytes(),
    }


def bench_pack_overhead(pack: str = "phi-micsmc", pairs: int = 31) -> dict:
    """The scenario-pack layer's own cost per run: ``run_pack``
    (resolve the catalog manifest, validate, compile, dispatch) minus
    the same compiled spec run straight through the engine.

    ``pack_ms`` is the median per-pair wall difference in milliseconds.
    It is absolute on purpose: a ratio against the engine run would
    fall whenever the live session both sides share got faster.  The
    ceiling catches the pack layer growing per-run work (re-validation
    in a loop, manifest re-reads, O(catalog) scans)."""
    from repro.exec.engine import Engine
    from repro.packs import catalog
    from repro.packs import run as pack_run

    raw = catalog.raw_pack(pack)
    spec, _ = pack_run.compile_spec(raw)

    def engine_only():
        Engine().run([spec])

    def through_packs():
        pack_run.run_pack(pack)

    engine_only()  # warm imports and testbed caches out of the timing
    through_packs()
    timed = _paired(engine_only, through_packs, pairs)
    return {
        "wall_s": timed.candidate_s,
        "pack_ms": timed.extra_s * 1e3,
        "engine_wall_s": timed.reference_s,
        "pack": pack,
    }


def bench_fleet(sites: int = 10, racks: int = MIRA_RACKS,
                ticks: int = 400) -> dict:
    """A fleet sweep of ``sites`` Mira-class sites through the federated
    store, plus the channel-cache crossings ablation over ``ticks``.

    ``speedup_vs_scalar`` is the sweep's realtime factor (virtual
    seconds simulated per wall second).  ``cache_reduction`` is how
    many times fewer access-channel crossings the channel cache leaves
    on the shared-device consumer pattern, and ``byte_identical`` that
    it stays invisible in the MonEQ outputs."""
    from repro.fleet import build_fleet, cache_ablation, fleet_sweep

    fleet = build_fleet(n_sites=sites, racks=racks)
    report = fleet_sweep(fleet, duration_s=60.0)
    # Stopped pollers leave no pending sweep holding a site, so the
    # fleet is freed by reference counting, not by a later collection.
    for site in fleet.sites.values():
        site.envdb.stop()
    ablation = cache_ablation(consumers=8, ticks=ticks)
    return {
        "wall_s": report.wall_s,
        "speedup_vs_scalar": report.realtime_factor,
        "sites": report.sites,
        "racks": report.racks,
        "sweeps": report.sweeps,
        "records": report.records,
        "dropped": report.dropped,
        "reshards": len(report.reshards),
        "shards": sum(report.shards_by_site.values()),
        "rollup_windows": report.rollup_windows,
        "hit_rate": ablation["hit_rate"],
        "crossings_uncached": ablation["crossings_uncached"],
        "crossings_cached": ablation["crossings_cached"],
        "cache_reduction": ablation["crossings_reduction"],
        "byte_identical": ablation["byte_identical"],
    }


@dataclass(frozen=True)
class Profile:
    """How a profile records its baselines and how far a fresh run may
    fall below them."""

    #: Runs a recording takes the median and spread over.
    reps: int
    #: Least relative slack below the committed median (see
    #: :func:`check`).
    slack: float


#: ``full``: the acceptance sizes, recorded single-shot and held within
#: 30% of the committed value.  ``smoke``: sizes a shared CI runner
#: finishes in seconds, recorded as a median over three runs and held
#: within ``max(50%, 2 x spread)`` of it — a runner under load halves
#: speedups without anything regressing.
PROFILES: dict[str, Profile] = {
    "full": Profile(reps=1, slack=0.30),
    "smoke": Profile(reps=3, slack=0.50),
}


@dataclass(frozen=True)
class Bench:
    """One row of the registry."""

    run: Callable[..., dict]
    #: Keyword sizes per profile.
    full: dict[str, object]
    smoke: dict[str, object]
    #: Absolute floor on ``metric``, per profile.
    floors: dict[str, float]
    #: Floors on detail keys, enforced in every profile.
    detail_floors: dict[str, float] = field(default_factory=dict)
    #: The result key the row is held to, recorded by and printed as.
    metric: str = "speedup_vs_scalar"
    #: Printed after ``metric``'s value.
    unit: str = "x"
    #: Absolute ceiling on ``metric``, per profile, for a row that
    #: reports a cost (lower is better) rather than a ratio; such a row
    #: has no ``floors``.
    ceilings: dict[str, float] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """How failure messages name ``metric``."""
        return "speedup" if self.metric == "speedup_vs_scalar" else self.metric

    def measure(self, profile: str) -> dict:
        # Collect the cyclic garbage earlier rows left (the service
        # row's rig leaves ~40k objects, ~20 ms to free), so no row's
        # wall includes a full collection of another row's cycles.
        gc.collect()
        return self.run(**getattr(self, profile))


#: Bench name -> row, in report order.  The floors sit far below the
#: measured values: they catch an optimization being *undone* (a
#: speedup collapsing to ~1x), not a noisy runner; the relative check
#: against the committed baseline catches the slower bleed.
BENCHES: dict[str, Bench] = {
    "moneq_block": Bench(
        bench_moneq_block,
        full={"agents": 1024, "ticks": 10_000, "scalar_ticks": 100},
        smoke={"agents": 64, "ticks": 1_000, "scalar_ticks": 50},
        floors={"full": 10.0, "smoke": 3.0}),
    # The block session's wall per tick, held under what it cost when
    # the row was a ratio (wall_s / ticks of that baseline: 15.754 us
    # full, 17.946 us smoke).
    "moneq_full_session": Bench(
        bench_moneq_full_session, full={"duration_s": 60.0, "runs": 3},
        smoke={"duration_s": 10.0, "runs": 5},
        floors={}, metric="block_us_per_tick", unit=" us",
        ceilings={"full": 15.75, "smoke": 17.9}),
    "launcher_fanin_4096": Bench(
        bench_launcher_fanin, full={"size": 4096, "pairs": 3},
        smoke={"size": 512, "pairs": 5},
        floors={"full": 0.5, "smoke": 0.5}),
    # collect/read_block is <= ~1 by definition: 0.25 means a
    # retry-free read spends at least a quarter of its wall below the
    # fault-injection seam.
    "chaos_hotpath": Bench(
        bench_chaos_hotpath, full={"rows": 200_000, "pairs": 5},
        smoke={"rows": 50_000, "pairs": 5},
        floors={"full": 0.25, "smoke": 0.25}),
    # The pack layer's own ms per run, held under what it cost when
    # the row was a ratio (wall_s - engine_wall_s of that baseline:
    # 0.436 ms full, 0.418 ms smoke).
    "pack_overhead": Bench(
        bench_pack_overhead, full={"pairs": 41}, smoke={"pairs": 31},
        floors={}, metric="pack_ms", unit=" ms",
        ceilings={"full": 0.43, "smoke": 0.41}),
    # Mixed queries per second through HTTP; the floors sit near half
    # the committed medians (12.9 q/s full, 108.8 q/s smoke).
    "service": Bench(
        bench_service,
        full={"racks": 64, "shards": 64, "requests": 400, "sweeps": 16},
        smoke={"racks": 8, "shards": 8, "requests": 100, "sweeps": 16},
        floors={"full": 6.0, "smoke": 50.0}, metric="sustained_qps",
        unit=" q/s"),
    # The sweep's realtime factor: 2x still means the fleet simulates
    # faster than the machines it models.
    "fleet": Bench(
        bench_fleet, full={"sites": 10, "racks": MIRA_RACKS, "ticks": 400},
        smoke={"sites": 2, "racks": 4, "ticks": 200},
        floors={"full": 2.0, "smoke": 2.0},
        detail_floors={"cache_reduction": 5.0}),
}


def load(path: str = TRAJECTORY_PATH) -> dict[str, dict[str, dict]]:
    """The committed trajectory (empty when there is no file yet)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def floor_failures(name: str, result: dict, profile: str) -> list[str]:
    """Where ``result`` misses its row's absolute floor or ceiling, or reports
    output bytes that diverged from the reference path."""
    bench = BENCHES[name]
    value = result[bench.metric]
    failures = []
    if bench.ceilings:
        ceiling = bench.ceilings[profile]
        if value > ceiling:
            failures.append(f"{name}: {profile} {bench.metric} {value:.3f} "
                            f"above the {ceiling:g} ceiling")
    elif value < bench.floors[profile]:
        failures.append(f"{name}: {profile} {bench.label} {value:.3f}"
                        f"{bench.unit} below the {bench.floors[profile]:g}"
                        f"{bench.unit} floor")
    for key, floor in bench.detail_floors.items():
        if result[key] < floor:
            failures.append(f"{name}: {key} {result[key]:.3f}x below the "
                            f"{floor:g}x floor")
    if result.get("byte_identical") is False:
        failures.append(f"{name}: output bytes diverged from the "
                        f"reference path")
    return failures


def check(names: list[str], profile: str, path: str = TRAJECTORY_PATH
          ) -> tuple[list[str], dict[str, dict]]:
    """Run each named bench once in ``profile`` and hold it to its
    floors; writes nothing.  Returns ``(failures, results)``.

    Past the absolute floors, a fresh speedup must stay within
    ``min(90%, max(slack, 2 x spread))`` of the committed median — the
    profile's slack, widened for a bench whose committed run-to-run
    spread is larger.  A cost row (one with ceilings) must instead
    stay under its committed median plus the same slack.  The check
    fails both ways: a named bench with no committed baseline, and a
    committed baseline whose row is gone.
    """
    committed = load(path).get(profile, {})
    failures = [f"{name}: {profile} baseline in {path} but no longer "
                f"benched" for name in committed if name not in BENCHES]
    results = {}
    for name in names:
        bench = BENCHES[name]
        result = results[name] = bench.measure(profile)
        failures += floor_failures(name, result, profile)
        baseline = committed.get(name)
        if baseline is None:
            failures.append(f"{name}: no committed {profile} baseline in "
                            f"{path}")
            continue
        slack = min(0.90, max(PROFILES[profile].slack,
                              2.0 * baseline["spread"]))
        value, median = result[bench.metric], baseline[bench.metric]
        if bench.ceilings:
            ceiling = median * (1.0 + slack)
            if value > ceiling:
                failures.append(
                    f"{name}: {profile} {bench.metric} {value:.3f} rose "
                    f"above {ceiling:.3f} (committed median {median:.3f} "
                    f"+ {slack:.0%})")
        elif value < median * (1.0 - slack):
            unit = bench.unit
            failures.append(
                f"{name}: {profile} {bench.label} {value:.3f}{unit} fell "
                f"below {median * (1.0 - slack):.3f}{unit} (committed "
                f"median {median:.3f}{unit} - {slack:.0%})")
    return failures, results


def record(names: list[str], profile: str, path: str = TRAJECTORY_PATH
           ) -> tuple[list[str], dict[str, dict]]:
    """Measure each named bench ``reps`` times and record its median
    ``wall_s`` and ``metric``, the relative ``spread``
    ``(max - min) / median`` and the last run's detail under
    ``profile`` in the trajectory file; other entries are kept and rows
    no longer in :data:`BENCHES` dropped.

    The spread is the runner-variance characterization :func:`check`
    widens its slack by.  Nothing is written if a median misses its
    floor.  Returns ``(failures, entries)``.
    """
    reps = PROFILES[profile].reps
    entries: dict[str, dict] = {}
    for name in names:
        metric = BENCHES[name].metric
        runs = [BENCHES[name].measure(profile) for _ in range(reps)]
        values = [r[metric] for r in runs]
        mid = statistics.median(values)
        entry = {key: round(value, 6) if isinstance(value, float) else value
                 for key, value in runs[-1].items()}
        entry["wall_s"] = round(statistics.median(r["wall_s"] for r in runs),
                                6)
        entry[metric] = round(mid, 3)
        entry["spread"] = round((max(values) - min(values)) / mid, 3)
        entries[name] = entry
    failures = [failure for name, entry in entries.items()
                for failure in floor_failures(name, entry, profile)]
    if not failures:
        trajectory = load(path)
        trajectory[profile] = {
            name: entry for name, entry
            in {**trajectory.get(profile, {}), **entries}.items()
            if name in BENCHES}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trajectory, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return failures, entries
