"""The service load generator behind the ``service`` bench row.

``bench_service`` stands up the ROADMAP's target rig — a 64-rack BG/Q
machine whose envdb shards across 64 stores — puts a
:class:`~repro.service.app.ServiceApp` in front of it, and drives a
sustained mixed query load (range / prefix / latest / aggregate / tail
pages) through the in-process client: the full dispatch, auth,
planning, merge and JSON path with no socket noise.  The committed
figure is sustained queries/second; ``speedup_vs_scalar`` is the
aggregate cache's cold-build vs warm-hit ratio measured through the
whole HTTP stack — the store-level cached-aggregate speedup as a
client actually sees it, with dispatch and JSON riding along.

``python -m repro bench service`` records it in
``BENCH_trajectory.json`` (full sizes; ``--smoke`` the reduced ones).
"""

from __future__ import annotations

import os
import time

from repro.bgq.machine import BgqMachine
from repro.service.app import ServiceApp, ServiceClient, service_for_machine
from repro.sim.rng import RngRegistry

#: The poll interval the rig sweeps at (the paper's ~4 minute default).
SWEEP_INTERVAL_S = 240.0


def build_rig(racks: int = 64, shards: int = 64, sweeps: int = 2,
              seed: int = 11) -> tuple[BgqMachine, ServiceApp, ServiceClient]:
    """A populated machine + service + client, ``sweeps`` sweeps in."""
    machine = BgqMachine(racks=racks, rng=RngRegistry(seed),
                         poll_interval_s=SWEEP_INTERVAL_S,
                         envdb_shards=shards)
    machine.advance_to(SWEEP_INTERVAL_S * sweeps + 1.0)
    app = service_for_machine(machine, pump_step_s=SWEEP_INTERVAL_S)
    return machine, app, ServiceClient(app)


def _get_ok(client: ServiceClient, path: str, params=None):
    """``client.get`` that raises on any non-200 response: a fast error
    path must never pass for a fast query."""
    response = client.get(path, params)
    if response.status != 200:
        raise RuntimeError(f"load generator got {response.status} on "
                           f"{path}: {response.body[:200]!r}")
    return response


def _drive_mixed(client: ServiceClient, racks: int, requests: int,
                 t1: float) -> dict:
    """Issue ``requests`` mixed queries; returns accounting."""
    kinds = ("range", "latest", "prefix", "aggregate", "tail")
    rows = 0
    cursor = 0
    started = time.perf_counter()
    for i in range(requests):
        kind = kinds[i % len(kinds)]
        prefix = f"R{(i * 7) % racks:02d}"
        if kind == "range":
            response = _get_ok(client, "/v2/query/range", {
                "table": "bpm", "t0": 0.0, "t1": t1, "prefix": prefix})
        elif kind == "latest":
            response = _get_ok(client, "/v2/query/latest", {
                "table": "bpm", "prefix": prefix})
        elif kind == "prefix":
            response = _get_ok(client, "/v2/query/prefix", {
                "table": "fan", "prefix": prefix})
        elif kind == "aggregate":
            response = _get_ok(client, "/v2/query/aggregate", {
                "table": "bpm", "field": "input_power_w", "t0": 0.0,
                "t1": t1, "window": SWEEP_INTERVAL_S})
        else:
            response = _get_ok(client, "/v2/tail", {
                "table": "bpm", "cursor": cursor, "limit": 512})
            cursor = response.json()["cursor"]
        payload = response.json()
        rows += payload.get("count", len(payload.get("rows", ())))
    wall = time.perf_counter() - started
    return {"wall_s": wall, "qps": requests / wall, "rows": rows}


def _aggregate_cache_ratio(client: ServiceClient, store, t1: float,
                           probes: int = 4, warm_reps: int = 10) -> float:
    """Cold-build vs warm-hit time per aggregate query, through HTTP.

    The probe pins one location: the response stays a handful of rows
    (so serialization doesn't drown the signal), while a cold query
    still builds the **whole shard's** per-(location, window) cache.
    Each previously-unseen ``window_s`` forces that rebuild; repeats of
    the same query are pure cache hits.  Averaged over ``probes``
    rebuilds because single cold samples are noise-dominated.
    """
    location = sorted(store.latest("bpm"))[0]
    cold = 0.0
    warm = 0.0
    for probe in range(probes):
        params = {"table": "bpm", "field": "input_power_w", "t0": 0.0,
                  "t1": t1, "window": 60.0 + probe, "prefix": location}
        t = time.perf_counter()
        _get_ok(client, "/v2/query/aggregate", params)
        cold += time.perf_counter() - t
        t = time.perf_counter()
        for _ in range(warm_reps):
            _get_ok(client, "/v2/query/aggregate", params)
        warm += (time.perf_counter() - t) / warm_reps
    return cold / warm if warm > 0 else 1.0


def bench_service(racks: int = 64, shards: int = 64, requests: int = 400,
                  sweeps: int = 16, seed: int = 11) -> dict:
    """The ``service`` bench row (reduced sizes for smoke)."""
    started = time.perf_counter()
    machine, app, client = build_rig(racks=racks, shards=shards,
                                     sweeps=sweeps, seed=seed)
    t1 = machine.clock.now
    _get_ok(client, "/ready")
    mixed = _drive_mixed(client, racks, requests, t1)
    cache_ratio = _aggregate_cache_ratio(client, machine.envdb.store, t1)

    # One bounded streaming tail, pumping a fresh sweep mid-stream, so
    # the committed bench exercises the chunked path too.
    stream = _get_ok(client, "/v2/stream/tail", {
        "table": "bpm", "cursor": 0, "batches": 3, "page": 4096})
    streamed = sum(1 for line in stream.lines() if "marker" not in line)

    return {
        "wall_s": time.perf_counter() - started,
        "speedup_vs_scalar": cache_ratio,
        "sustained_qps": mixed["qps"],
        "requests": requests,
        "query_wall_s": mixed["wall_s"],
        "rows_returned": mixed["rows"],
        "streamed_rows": streamed,
        "racks": racks,
        "shards": shards,
        "store_records": machine.envdb.store.records_ingested,
        "cpus": os.cpu_count(),
    }
