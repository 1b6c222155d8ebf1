"""The bench registry: wall-clock benches of the simulator's hot paths.

These measure the *simulator's* speed, not the modeled hardware.  Every
bench is one row of :data:`BENCHES`: a callable, its keyword sizes for
the ``full`` and ``smoke`` profiles, and an absolute floor per profile
on the ratio it reports.  Every row's committed baseline lives in one
trajectory file, :data:`TRAJECTORY_PATH`, shaped ``{profile: {bench:
{wall_s, speedup_vs_scalar, spread, ...detail}}}``.

``python -m repro bench [name...] [--smoke] [--check]`` is the one
front door.  Without ``--check`` it measures the named rows (default:
all) :attr:`Profile.reps` times and records each row's median and
spread; with it, one run per row is held to :func:`check`'s floors and
nothing is written.  ``benchmarks/bench_registry.py`` holds a live
full-profile run of every row to the same table.

Every bench returns a dict whose first two keys are ``wall_s`` (the
optimized path's wall) and ``speedup_vs_scalar`` (the reference wall
over the optimized wall, where "scalar" is the pre-optimization path);
extra keys are detail.  A ``byte_identical`` key, where present, must
be True.
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
from repro.runtime.launcher import Launcher
from repro.runtime.ops import ANY_SOURCE, Compute, Recv, Send
from repro.service.loadgen import bench_service
from repro.workloads.vectoradd import VectorAddWorkload

NVML_INTERVAL_S = 0.060

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


def _paired(reference: Callable[[], object], candidate: Callable[[], object],
            pairs: int) -> _Paired:
    """Time ``reference`` then ``candidate``, ``pairs`` times over, and
    return the median per-pair ``reference / candidate`` wall ratio
    (plus the median walls and the last pair's results).

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
    return _Paired(ratio, statistics.median(ref_walls),
                   statistics.median(cand_walls), ref, cand)


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
    config = MoneqConfig(polling_interval_s=NVML_INTERVAL_S,
                         buffer_slots=ticks + 64, block_ticks=block_ticks)
    session = MoneqSession(backends, node.events, config=config, vfs=node.vfs)
    return node, session


def _nvml_outputs(agents: int, ticks: int, block_ticks: int, seed: int):
    node, session = _nvml_session(agents, ticks, block_ticks, seed)
    node.events.run_until(ticks * NVML_INTERVAL_S + NVML_INTERVAL_S / 2)
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
        horizon = ticks * NVML_INTERVAL_S + NVML_INTERVAL_S / 2
        node, session = _nvml_session(agents, ticks, 4096, seed)
        wall_block, _ = _wall(lambda: node.events.run_until(horizon))
        if session.agents[0].count != ticks:
            raise AssertionError(
                f"block run collected {session.agents[0].count} ticks, "
                f"wanted {ticks}"
            )

        slice_horizon = scalar_ticks * NVML_INTERVAL_S + NVML_INTERVAL_S / 2
        node, session = _nvml_session(agents, scalar_ticks, 1, seed)
        wall_slice, _ = _wall(lambda: node.events.run_until(slice_horizon))
        if session.agents[0].count != scalar_ticks:
            raise AssertionError(
                f"one-tick slice collected {session.agents[0].count} ticks, "
                f"wanted {scalar_ticks}"
            )
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


def bench_moneq_full_session(duration_s: float = 60.0, pairs: int = 3,
                             seed: int = 96) -> dict:
    """An ordinary ``profile_run`` (RAPL at the 60 ms hardware minimum),
    full lookahead versus one-tick blocks — both run in full, so the
    speedup is measured, not extrapolated."""
    from repro import testbeds

    def profile(block_ticks: int):
        node, _ = testbeds.rapl_node(seed=seed)
        return moneq.profile_run(
            node, duration_s=duration_s,
            config=MoneqConfig(polling_interval_s=0.06, block_ticks=block_ticks),
        )

    timed = _paired(lambda: profile(1), lambda: profile(4096), pairs)
    if timed.candidate.overhead.ticks != timed.reference.overhead.ticks:
        raise AssertionError(
            f"block session ticked {timed.candidate.overhead.ticks}, "
            f"one-tick blocks ticked {timed.reference.overhead.ticks}"
        )
    return {
        "wall_s": timed.candidate_s,
        "speedup_vs_scalar": timed.ratio,
        "scalar_wall_s": timed.reference_s,
        "ticks": timed.candidate.overhead.ticks,
    }


def bench_launcher_fanin(size: int = 4096, nbytes: int = 64,
                         pairs: int = 3) -> dict:
    """The acceptance bench for the scheduler: an ANY_SOURCE fan-in of
    ``size`` ranks into rank 0 — the worst case for the seed's linear
    scan (O(n) rescan per step, O(n) source scan per receive)."""

    def program(ctx):
        if ctx.rank == 0:
            total = 0
            for _ in range(ctx.size - 1):
                total += yield Recv(source=ANY_SOURCE, tag=1)
            return total
        yield Compute(1e-6 * ((ctx.rank * 13) % 7 + 1))
        yield Send(dest=0, payload=ctx.rank, tag=1, nbytes=nbytes)

    timed = _paired(
        lambda: Launcher(program, size=size, scheduler="linear").run(),
        lambda: Launcher(program, size=size, scheduler="heap").run(), pairs)
    if [r.value for r in timed.candidate] != [r.value
                                              for r in timed.reference]:
        raise AssertionError("heap and linear schedulers diverged")
    return {
        "wall_s": timed.candidate_s,
        "speedup_vs_scalar": timed.ratio,
        "linear_wall_s": timed.reference_s,
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
    times = np.arange(rows, dtype=np.float64) * NVML_INTERVAL_S

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


def bench_pack_overhead(pack: str = "phi-micsmc", pairs: int = 5) -> dict:
    """Dispatch overhead of the scenario-pack layer: ``run_pack``
    (resolve the catalog manifest, validate, compile, dispatch) versus
    the same compiled spec run straight through the engine.

    ``speedup_vs_scalar`` is ``wall(engine only) / wall(run_pack)`` —
    ~1.0 when the pack layer is thin.  Both sides run with the cache
    off so the measured work is the live session itself; the
    floor catches the pack layer growing per-run work (re-validation
    in a loop, manifest re-reads, O(catalog) scans)."""
    from repro.exec.engine import Engine
    from repro.packs import catalog
    from repro.packs import run as pack_run

    raw = catalog.raw_pack(pack)
    spec, _ = pack_run.compile_spec(raw)

    def engine_only():
        Engine(cache=False).run([spec])

    def through_packs():
        pack_run.run_pack(pack, cache=False)

    engine_only()  # warm imports and testbed caches out of the timing
    through_packs()
    timed = _paired(engine_only, through_packs, pairs)
    return {
        "wall_s": timed.candidate_s,
        "speedup_vs_scalar": timed.ratio,
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
    from repro.fleet import cache_ablation, fleet_sweep

    report = fleet_sweep(n_sites=sites, racks=racks, duration_s=60.0)
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


def bench_exec() -> dict:
    """The experiment engine on the full report, into a throwaway cache:
    cold with the cache off (the pre-engine baseline), cold filling the
    cache, and warm (every task a cache hit).

    ``speedup_vs_scalar`` is the warm run against the cache-off run.
    The rendered markdown must be byte-identical across all three."""
    import shutil
    import tempfile

    from repro.exec.engine import Engine
    from repro.experiments import report

    cache_root = tempfile.mkdtemp(prefix="repro-exec-bench-")
    try:
        def timed(cache: bool) -> tuple[float, str]:
            return _wall(lambda: report.generate_markdown(
                cache=cache, cache_root=cache_root))

        wall_serial, md_serial = timed(cache=False)
        _, md_cold = timed(cache=True)
        wall_warm, md_warm = timed(cache=True)

        engine = Engine(cache=True, cache_root=cache_root)
        engine.run()
        if engine.stats.cache_misses:
            raise AssertionError(
                f"warm engine still missed {engine.stats.cache_misses} "
                f"task(s)")
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    return {
        "wall_s": wall_warm,
        "speedup_vs_scalar": wall_serial / wall_warm,
        "cold_serial_wall_s": wall_serial,
        "tasks": engine.stats.cache_hits,
        "byte_identical": md_serial == md_cold == md_warm,
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
    #: Absolute floor on ``speedup_vs_scalar``, per profile.
    floors: dict[str, float]
    #: Floors on detail keys, enforced in every profile.
    detail_floors: dict[str, float] = field(default_factory=dict)

    def measure(self, profile: str) -> dict:
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
    "moneq_full_session": Bench(
        bench_moneq_full_session, full={"duration_s": 60.0, "pairs": 3},
        smoke={"duration_s": 10.0, "pairs": 5},
        floors={"full": 1.5, "smoke": 2.0}),
    "launcher_fanin_4096": Bench(
        bench_launcher_fanin, full={"size": 4096, "pairs": 3},
        smoke={"size": 512, "pairs": 5},
        floors={"full": 5.0, "smoke": 1.5}),
    # collect/read_block is <= ~1 by definition: 0.25 means a
    # retry-free read spends at least a quarter of its wall below the
    # fault-injection seam.
    "chaos_hotpath": Bench(
        bench_chaos_hotpath, full={"rows": 200_000, "pairs": 5},
        smoke={"rows": 50_000, "pairs": 5},
        floors={"full": 0.25, "smoke": 0.25}),
    # engine-only/run_pack is <= ~1 by definition: 0.80 still separates
    # a thin dispatch from a pack layer doing per-run heavy lifting.
    "pack_overhead": Bench(
        bench_pack_overhead, full={"pairs": 9}, smoke={"pairs": 5},
        floors={"full": 0.80, "smoke": 0.80}),
    # The aggregate cache cold/warm through HTTP (~2.5-3x; the
    # store-level ~85x is mostly absorbed by dispatch + JSON): 1.5x
    # still separates a live cache from a dead one.
    "service": Bench(
        bench_service,
        full={"racks": 64, "shards": 64, "requests": 400, "sweeps": 16},
        smoke={"racks": 8, "shards": 8, "requests": 100, "sweeps": 16},
        floors={"full": 1.5, "smoke": 1.5}),
    # The sweep's realtime factor: 2x still means the fleet simulates
    # faster than the machines it models.
    "fleet": Bench(
        bench_fleet, full={"sites": 10, "racks": MIRA_RACKS, "ticks": 400},
        smoke={"sites": 2, "racks": 4, "ticks": 200},
        floors={"full": 2.0, "smoke": 2.0},
        detail_floors={"cache_reduction": 5.0}),
    "exec": Bench(
        bench_exec, full={}, smoke={},
        floors={"full": 10.0, "smoke": 10.0}),
}


def load(path: str = TRAJECTORY_PATH) -> dict[str, dict[str, dict]]:
    """The committed trajectory (empty when there is no file yet)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def floor_failures(name: str, result: dict, profile: str) -> list[str]:
    """Where ``result`` misses its row's absolute floors, or reports
    output bytes that diverged from the reference path."""
    bench = BENCHES[name]
    speed = result["speedup_vs_scalar"]
    failures = []
    floor = bench.floors[profile]
    if speed < floor:
        failures.append(f"{name}: {profile} speedup {speed:.3f}x below the "
                        f"{floor:g}x floor")
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
    spread is larger.  The check fails both ways: a named bench with no
    committed baseline, and a committed baseline whose row is gone.
    """
    committed = load(path).get(profile, {})
    failures = [f"{name}: {profile} baseline in {path} but no longer "
                f"benched" for name in committed if name not in BENCHES]
    results = {}
    for name in names:
        result = results[name] = BENCHES[name].measure(profile)
        failures += floor_failures(name, result, profile)
        baseline = committed.get(name)
        if baseline is None:
            failures.append(f"{name}: no committed {profile} baseline in "
                            f"{path}")
            continue
        slack = min(0.90, max(PROFILES[profile].slack,
                              2.0 * baseline["spread"]))
        floor = baseline["speedup_vs_scalar"] * (1.0 - slack)
        if result["speedup_vs_scalar"] < floor:
            failures.append(
                f"{name}: {profile} speedup "
                f"{result['speedup_vs_scalar']:.3f}x fell below "
                f"{floor:.3f}x (committed median "
                f"{baseline['speedup_vs_scalar']:.3f}x - {slack:.0%})")
    return failures, results


def record(names: list[str], profile: str, path: str = TRAJECTORY_PATH
           ) -> tuple[list[str], dict[str, dict]]:
    """Measure each named bench ``reps`` times and record its median
    ``wall_s`` and ``speedup_vs_scalar``, the relative ``spread``
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
        runs = [BENCHES[name].measure(profile) for _ in range(reps)]
        speeds = [r["speedup_vs_scalar"] for r in runs]
        mid = statistics.median(speeds)
        entry = {key: round(value, 6) if isinstance(value, float) else value
                 for key, value in runs[-1].items()}
        entry["wall_s"] = round(statistics.median(r["wall_s"] for r in runs),
                                6)
        entry["speedup_vs_scalar"] = round(mid, 3)
        entry["spread"] = round((max(speeds) - min(speeds)) / mid, 3)
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
