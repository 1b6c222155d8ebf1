"""The Blue Gene environmental database.

"Blue Gene systems have environmental monitoring capabilities that
periodically sample and gather environmental data from various sensors
and store this collected information together with the timestamp and
location information in an IBM DB2 relational database.  ...  This
sensor data is collected at relatively long polling intervals (about 4
minutes on average but can be configured anywhere within a range of
60-1,800 seconds), and while a shorter polling interval would be ideal,
the resulting volume of data alone would exceed the server's processing
capacity."  (paper §II-A)

Storage routes through :class:`repro.store.ShardedStore`: records shard
by rack prefix, each shard carries the paper's single-server ingest
ceiling, and each sweep is written as one
:meth:`~repro.store.ShardedStore.ingest_batch`.  The default
``shards=1`` *is* the paper's DB2 server — same capacity arithmetic,
same query results — while ``shards=16`` sustains a full-Mira sweep at
the 60 s minimum interval.  Queries return the store's normalized
:class:`~repro.store.Reading` records.

A sweep meters every registered BPM as one
:class:`~repro.bgq.bpm.BpmBlock`: meter noise and coolant jitter are
seed-array hashes over the BPMs, board power is evaluated once per
distinct board schedule, and the four tables' columns go to the store
as one :class:`~repro.store.Batch` — no per-row dict or
:class:`~repro.store.Reading` is built on the write path.  Stored rows
are bit-identical to metering each BPM on its own.
"""

from __future__ import annotations

import numpy as np

from repro.bgq.bpm import BpmBlock, BulkPowerModule
from repro.errors import ConfigError
from repro.obs.instruments import ENVDB_POLLS, ENVDB_QUERY_ROWS, ENVDB_RECORDS, collector
from repro.sim.events import Event, EventQueue
from repro.sim.hashrand import hash_normal
from repro.store import Aggregate, Batch, BatchBlock, Reading, ShardedStore

_OBS = collector("envdb")
_RECORD_COUNTERS = {}
#: Seed offset of the per-BPM coolant jitter draws.
_COOLANT_JITTER_SALT = np.uint64(0xC0FFEE)

#: Allowed polling-interval range (s).
MIN_POLL_INTERVAL_S = 60.0
MAX_POLL_INTERVAL_S = 1800.0
#: The "about 4 minutes on average" default.
DEFAULT_POLL_INTERVAL_S = 240.0

#: DB2 server ingest ceiling, records/second — sized so that a full
#: Mira (1,536 BPM sweeps x 4 tables) saturates the server below the
#: 60 s minimum interval but runs comfortably at the ~4 minute default,
#: the paper's capacity rationale.  With sharding this is a *per-shard*
#: ceiling; one shard reproduces the paper's single server.
SERVER_CAPACITY_RECORDS_PER_S = 60.0


class EnvironmentalDatabase:
    """The environmental database plus its polling agent.

    Parameters
    ----------
    queue:
        Event queue driving the poller.
    poll_interval_s:
        Must lie within the documented 60-1800 s range.
    shards:
        Independent stores the records shard across (by rack prefix).
        1 — the default — models the paper's single DB2 server.
    """

    TABLES = ("bpm", "coolant", "temperature", "fan")

    def __init__(self, queue: EventQueue,
                 poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
                 shards: int = 1):
        if not MIN_POLL_INTERVAL_S <= poll_interval_s <= MAX_POLL_INTERVAL_S:
            raise ConfigError(
                f"poll interval {poll_interval_s} s outside the configurable "
                f"range [{MIN_POLL_INTERVAL_S}, {MAX_POLL_INTERVAL_S}] s"
            )
        self.queue = queue
        self.poll_interval_s = float(poll_interval_s)
        self.store = ShardedStore(
            self.TABLES, n_shards=shards,
            capacity_records_per_s=SERVER_CAPACITY_RECORDS_PER_S,
        )
        self._bpms: list[BulkPowerModule] = []
        self._polls = 0
        self._started = False
        #: The pending sweep while the poller runs.
        self._next: Event | None = None

    # -- sensor registration --------------------------------------------------

    def register_bpm(self, bpm: BulkPowerModule) -> None:
        self._bpms.append(bpm)

    @property
    def sensors_per_poll(self) -> int:
        """Records written per polling sweep: BPM rows plus the ambient
        coolant/temperature/fan rows each rack contributes."""
        return len(self._bpms) * 4  # bpm, coolant, temperature, fan rows

    def sweep_locations(self) -> list[str]:
        """One location per record a sweep writes, in sweep order — the
        capacity model's input, and what fleet rebalancing sizes shard
        maps against."""
        out: list[str] = []
        for bpm in self._bpms:
            out.extend((bpm.location, bpm.node_board.location,
                        bpm.node_board.location, bpm.location))
        return out

    # -- capacity model --------------------------------------------------------

    def ingest_rate(self, poll_interval_s: float | None = None) -> float:
        """Records/second the whole fleet offers at a given interval."""
        interval = self.poll_interval_s if poll_interval_s is None else poll_interval_s
        return self.sensors_per_poll / interval

    def capacity_fraction(self, poll_interval_s: float | None = None) -> float:
        """Fraction of the ingest ceiling the *hottest shard* consumes.

        With one shard this is exactly the seed's single-server figure:
        offered records / (interval x server capacity).
        """
        interval = self.poll_interval_s if poll_interval_s is None else poll_interval_s
        return self.store.capacity_fraction(self.sweep_locations(), interval)

    def shortest_sustainable_interval(self) -> float:
        """The fastest poll the hottest shard could sustain for this
        sensor population (clamped into the configurable range)."""
        load = self.store.sweep_load(self.sweep_locations(), 1.0)
        raw = max(load.values(), default=0.0)
        return min(max(raw, MIN_POLL_INTERVAL_S), MAX_POLL_INTERVAL_S)

    @property
    def dropped_records(self) -> int:
        """Records lost to shard saturation since the poller started."""
        return self.store.dropped_records

    # -- polling ---------------------------------------------------------------

    def start(self) -> None:
        """Begin periodic sweeps on the event queue."""
        if self._started:
            raise ConfigError("environmental poller already started")
        self._started = True
        self._next = self.queue.schedule_in(self.poll_interval_s, self._sweep)

    def stop(self) -> None:
        """Stop the poller by cancelling its pending sweep.  A cancelled
        event drops its callback, so the queue no longer reaches this
        database and a finished rig is freed by reference counting."""
        if self._next is not None:
            self._next.cancel()
            self._next = None

    def _sweep(self, t: float) -> None:
        self._polls += 1
        ENVDB_POLLS.inc()
        for table in self.TABLES:
            child = _RECORD_COUNTERS.get(table)
            if child is None:
                child = _RECORD_COUNTERS[table] = ENVDB_RECORDS.labels(table)
            child.inc(len(self._bpms))
        block = BpmBlock(self._bpms)
        metered = block.metered(t)
        # Ambient rows derived from the board's electrical state.
        out_w = metered["output_power_w"]
        jitter = hash_normal(block.seeds ^ _COOLANT_JITTER_SALT, int(round(t)))
        columns = {
            "bpm": metered,
            "coolant": {"flow_lpm": 18.0 + 0.2 * jitter,
                        "pressure_kpa": 310.0 + 1.5 * jitter,
                        "inlet_c": 16.5 + 0.1 * jitter,
                        "outlet_c": 16.5 + out_w / 900.0},
            "temperature": {"board_c": 24.0 + out_w / 250.0},
            "fan": {"speed_rpm": 3600.0 + out_w / 4.0},
        }
        if self._bpms:
            self.store.ingest_batch(self._batch(t, columns),
                                    self.poll_interval_s)
        self._next = self.queue.schedule_in(self.poll_interval_s, self._sweep)

    def _batch(self, t: float,
               columns: dict[str, dict[str, np.ndarray]]) -> Batch:
        """One sweep's tables as column blocks, offered BPM by BPM: its
        bpm, coolant, temperature and fan rows in turn."""
        n = len(self._bpms)
        at = {"bpm": [bpm.location for bpm in self._bpms]}
        at["fan"] = at["bpm"]
        at["coolant"] = at["temperature"] = [bpm.node_board.location
                                             for bpm in self._bpms]
        return Batch(tuple(
            BatchBlock(table=table, mechanism="envdb",
                       fields=tuple(columns[table]),
                       timestamps=np.full(n, t), locations=at[table],
                       values=np.column_stack(tuple(columns[table].values())),
                       positions=np.arange(k, 4 * n, 4))
            for k, table in enumerate(self.TABLES)))

    @property
    def polls_completed(self) -> int:
        return self._polls

    # -- queries ----------------------------------------------------------------

    def range_readings(self, table: str, t0: float, t1: float,
                       location_prefix: str = "") -> list[Reading]:
        """Range + location-prefix query, as normalized readings."""
        readings = self.store.range(table, t0, t1, location_prefix)
        _OBS.count_query()
        ENVDB_QUERY_ROWS.inc(len(readings))
        return readings

    def aggregate(self, table: str, field: str, t0: float, t1: float,
                  window_s: float, location_prefix: str = "") -> list[Aggregate]:
        """Downsampled min/mean/max per location per window — the
        cache-backed path figure pipelines use for repeated scans."""
        _OBS.count_query()
        return self.store.aggregate(table, field, t0, t1, window_s,
                                    location_prefix)

    def bpm_input_power_series(self, location_prefix: str, t0: float,
                               t1: float) -> tuple[list[float], list[float]]:
        """(times, input watts) for Figure 1-style plots."""
        records = self.range_readings("bpm", t0, t1, location_prefix)
        return ([r.timestamp for r in records],
                [r.values["input_power_w"] for r in records])
