"""Fleet sweeps and the channel-cache ablation.

:func:`fleet_sweep` is the operational loop at fleet scale: reshard
saturated sites, advance every site through one polling-sweep horizon,
then fold the sites' partial aggregates into a fleet-wide rollup — the
scatter-gather plan that keeps the paper's single-server ceiling *per
site* while the center only ever sees O(windows) partials.

:func:`cache_ablation` is the channel cache's crossings-saved
measurement (K consumers sharing one device at the paper-default poll
rate, cache-on vs cache-off byte-compared).  The ``fleet`` row of
:data:`repro.perfbench.BENCHES` times both and holds their floors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bgq.machine import MIRA_RACKS
from repro.fleet.sites import DEFAULT_FLEET_SEED, Fleet, build_fleet

#: Rollup aggregation window for the sweep report (s).
ROLLUP_WINDOW_S = 30.0


@dataclass(frozen=True)
class FleetSweepReport:
    """Everything one timed fleet sweep produced."""

    sites: int
    racks: int
    duration_s: float
    wall_s: float
    sweeps: int
    records: int
    dropped: int
    #: Site → new shard count, for sites resharded before the sweep.
    reshards: dict[str, int]
    shards_by_site: dict[str, int]
    #: Fleet-wide rollup windows the federated aggregate produced.
    rollup_windows: int

    @property
    def realtime_factor(self) -> float:
        """Virtual seconds simulated per wall second."""
        return self.duration_s / self.wall_s if self.wall_s else float("inf")

    def summary_line(self) -> str:
        return (f"[repro fleet sweep] sites={self.sites} racks={self.racks} "
                f"duration_s={self.duration_s:.1f} wall_s={self.wall_s:.3f} "
                f"sweeps={self.sweeps} records={self.records} "
                f"dropped={self.dropped} reshards={len(self.reshards)} "
                f"shards={sum(self.shards_by_site.values())} "
                f"rollup_windows={self.rollup_windows} "
                f"realtime_x={self.realtime_factor:.1f}")


def fleet_sweep(fleet: Fleet | None = None, n_sites: int = 10,
                racks: int = MIRA_RACKS, duration_s: float = 60.0,
                poll_interval_s: float = 60.0,
                seed: int = DEFAULT_FLEET_SEED,
                window_s: float = ROLLUP_WINDOW_S) -> FleetSweepReport:
    """Run one timed fleet-wide sweep horizon.

    Builds the fleet if none is passed (``n_sites`` × ``racks``-rack
    Mira-class sites).  Sites whose sweep would saturate their ingest
    ceiling are resharded *before* the sweep — the 10×-Mira default at
    the 60 s minimum interval needs it, exactly as the paper's capacity
    arithmetic predicts.  The wall clock times
    the advance plus the federated rollup aggregate.
    """
    if fleet is None:
        fleet = build_fleet(n_sites=n_sites, racks=racks, seed=seed,
                            poll_interval_s=poll_interval_s)
    dropped_before = fleet.dropped_records
    records_before = fleet.records_ingested
    sweeps_before = fleet.sweeps_completed
    reshards = fleet.rebalance_saturated()

    poll = max(site.envdb.poll_interval_s for site in fleet.sites.values())
    horizon = duration_s + poll / 2.0
    t0 = time.perf_counter()
    fleet.advance_to(horizon)
    rollup = fleet.federation.aggregate(
        "bpm", "input_power_w", 0.0, horizon, window_s, rollup=True)
    wall_s = time.perf_counter() - t0

    return FleetSweepReport(
        sites=len(fleet.sites),
        racks=max(len(site.machine.racks) for site in fleet.sites.values()),
        duration_s=duration_s,
        wall_s=wall_s,
        sweeps=fleet.sweeps_completed - sweeps_before,
        records=fleet.records_ingested - records_before,
        dropped=fleet.dropped_records - dropped_before,
        reshards=reshards,
        shards_by_site=fleet.shards_by_site,
        rollup_windows=len(rollup),
    )


def cache_ablation(consumers: int = 8, ticks: int = 400,
                   seed: int = 0xCAC4E) -> dict:
    """Measure the channel cache on the fleet's canonical consumer
    pattern: ``consumers`` MonEQ agents polling one shared device at
    the mechanism's paper-default minimum interval (the CEEMS
    daemon-caching workload).

    The first consumer of each tick pays the device collection; every
    other consumer's freshness keys hit, so crossings shrink by ~the
    consumer count.  Outputs are byte-compared against an identical
    cache-disabled run — the cache must be invisible in the data.
    """
    from repro import testbeds
    from repro.core.moneq.backends import NvmlBackend
    from repro.core.moneq.config import MoneqConfig
    from repro.core.moneq.session import MoneqSession
    from repro.mech.cache import channel_cache_disabled, device_cache
    from repro.workloads.vectoradd import VectorAddWorkload

    def run_once(disabled: bool):
        node, gpu, _ = testbeds.gpu_node(seed=seed)
        gpu.board.schedule(VectorAddWorkload(), t_start=0.0)
        backends = []
        for i in range(consumers):
            backend = NvmlBackend(gpu)
            backend.label = f"{backend.label}.{i}"
            backends.append(backend)
        poll = backends[0].min_interval_s
        queries_per_read = backends[0].spec.queries_per_read
        config = MoneqConfig(polling_interval_s=poll,
                             buffer_slots=ticks + 64, block_ticks=256)
        session = MoneqSession(backends, node.events, config=config,
                               vfs=node.vfs)
        horizon = ticks * poll + poll / 2.0
        if disabled:
            with channel_cache_disabled():
                node.events.run_until(horizon)
                result = session.finalize()
        else:
            node.events.run_until(horizon)
            result = session.finalize()
        files = {p: node.vfs.read_text(p) for p in result.output_paths}
        return files, queries_per_read, device_cache(gpu).stats()

    files_cached, queries_per_read, stats = run_once(disabled=False)
    rows = stats.hits + stats.misses
    crossings_uncached = rows * queries_per_read
    crossings_cached = crossings_uncached - stats.crossings_saved

    files_plain, _, _ = run_once(disabled=True)
    return {
        "consumers": consumers,
        "ticks": ticks,
        "rows": rows,
        "hit_rate": stats.hit_rate,
        "crossings_uncached": crossings_uncached,
        "crossings_cached": crossings_cached,
        "crossings_reduction": (crossings_uncached / crossings_cached
                                if crossings_cached else float("inf")),
        "byte_identical": files_cached == files_plain,
    }
