"""Streaming tail of fresh readings, with shard-dark degradation.

The stream is a chunked NDJSON iterator: one JSON object per line,
either a reading or a marker.  It polls the store's ingest-ordered
tail cursor in bounded pages, so a consumer resumes exactly where it
left off and a slow consumer never blocks ingest (per-shard locks are
held only for the page copy).

Degradation reuses :mod:`repro.chaos`: the store's shards are probed
through a ``store-shard`` access channel, so the service's
:class:`~repro.chaos.faults.FaultPlan` (``ServiceApp.fault_plan``) with
a ``mechanism="store"`` rule takes shards dark mid-stream exactly like
a session's plan takes a sensor bus dark mid-session.  A stream
crossing a dark shard emits a **gap marker** — the consumer knows rows
are missing — and keeps going; an aggregate query over a dark shard
refuses with 503 instead of serving a partial sum silently.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator

import numpy as np

from repro.chaos.faults import FaultPlan
from repro.mech.channel import AccessChannel
from repro.obs.instruments import SERVICE_STREAM_GAPS, SERVICE_STREAM_ROWS
from repro.store.engine import ShardedStore
from repro.store.reading import Reading

#: The store's query path as a faultable channel: chaos rules target
#: ``mechanism="store"`` with one device label per shard (``shard3``).
STORE_CHANNEL = AccessChannel(
    "store-shard", 0.0,
    description="one store shard's query path, as a faultable channel",
)


def dark_shards(store: ShardedStore, now: float,
                plan: FaultPlan | None, site: str = "") -> set[int]:
    """The shard indices ``plan`` takes dark at ``now``.

    Shard ``i`` crosses as device ``shard{i}``, or ``<site>/shard{i}``
    for one site of a fleet, so each site's shards draw their own
    faults whatever else was probed before them.  With no plan this is
    the empty set — queries outside chaos runs pay a single check, like
    the mechanism read path.
    """
    out: set[int] = set()
    if plan is None:
        return out
    probe = np.array([now], dtype=np.float64)
    prefix = f"{site}/" if site else ""
    for index in range(store.n_shards):
        injector = plan.injector(STORE_CHANNEL, "store",
                                 f"{prefix}shard{index}")
        dark, _ = injector.cross_block_verdicts(probe)
        if dark[0]:
            out.add(index)
    return out


def reading_json(reading: Reading) -> dict:
    """The wire shape of one reading (dark fields serialize as NaN)."""
    return {
        "t": reading.timestamp,
        "location": reading.location,
        "mechanism": reading.mechanism,
        "values": dict(reading.values),
    }


def _line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def tail_stream(store: ShardedStore, table: str, cursor: int | None = None,
                location_prefix: str = "", page: int = 256,
                batches: int | None = 10,
                now: Callable[[], float] = lambda: 0.0,
                pump: Callable[[int], None] | None = None,
                plan: Callable[[], FaultPlan | None] = lambda: None,
                ) -> Iterator[str]:
    """Yield the NDJSON lines of one tail stream.

    Each poll emits gap markers for shards that went dark since the
    last poll, then one line per fresh reading (at most ``page``), then
    advances the cursor.  ``cursor=None`` starts at the ingest head —
    only readings ingested after the stream opened.  ``batches`` bounds
    the number of polls (``None`` streams until the consumer hangs up —
    the HTTP endpoint always bounds it).  ``pump`` runs between polls;
    servers wired to a simulated machine advance its event queue there
    so the stream observes sweeps landing in virtual time.  ``plan``
    returns the fault plan that decides which shards are dark at each
    poll (read per poll, so a plan swapped mid-stream takes effect).
    """
    position = store.ingest_cursor if cursor is None else cursor
    yield _line({"marker": "open", "table": table, "cursor": position,
                 "prefix": location_prefix})
    known_dark: set[int] = set()
    poll = 0
    while batches is None or poll < batches:
        poll += 1
        t = now()
        dark = dark_shards(store, t, plan())
        fresh_dark = sorted(dark - known_dark)
        if fresh_dark:
            SERVICE_STREAM_GAPS.inc(len(fresh_dark))
            yield _line({"marker": "gap", "shards": fresh_dark, "t": t,
                         "cursor": position,
                         "detail": "shards dark under the active fault plan; "
                                   "rows from them may be missing"})
        known_dark = dark
        batch = store.tail(table, position, location_prefix, limit=page)
        position = batch.cursor
        if batch.readings:
            SERVICE_STREAM_ROWS.inc(len(batch.readings))
            for reading in batch.readings:
                yield _line(reading_json(reading))
        if pump is not None:
            pump(poll)
    yield _line({"marker": "end", "cursor": position, "polls": poll})
