"""The shared instrument set for the simulated collectors.

Every vendor mechanism reports through the same four families, labeled
by ``mechanism``, so dashboards and the self-profiler can compare EMON
against RAPL against NVML against the Phi paths without knowing any
module internals:

* ``repro_collector_queries_total{mechanism}`` — one per query issued;
* ``repro_collector_query_seconds_total{mechanism}`` — charged latency;
* ``repro_collector_query_latency_seconds{mechanism}`` — its histogram;
* ``repro_collector_errors_total{mechanism,kind}`` — observed failures.

Mechanism-specific families (RAPL wraparounds, env-DB ingest, SCIF
traffic, MonEQ lifecycle, launcher scheduling) live here too so the full
metric namespace is declared in one place — ``docs/observability.md``
documents it name by name.

Modules grab their handle once at import time via :func:`collector`;
the handle stays valid across :func:`repro.obs.registry.MetricsRegistry.
reset` calls because resets zero samples without discarding children.
"""

from __future__ import annotations

from repro.obs.metrics import LATENCY_BUCKETS_S
from repro.obs.registry import get_registry

_REGISTRY = get_registry()

#: Mechanism label values in use, grouped by the paper's four vendors.
VENDOR_MECHANISMS: dict[str, tuple[str, ...]] = {
    "bgq": ("emon", "envdb"),
    "rapl": ("rapl_msr", "rapl_perf", "rapl_powercap"),
    "nvml": ("nvml",),
    "xeonphi": ("sysmgmt", "micras", "ipmb", "micsmc", "scif"),
}

COLLECTOR_QUERIES = _REGISTRY.counter(
    "repro_collector_queries_total",
    "Queries issued against a collection mechanism",
    labels=("mechanism",),
)
COLLECTOR_QUERY_SECONDS = _REGISTRY.counter(
    "repro_collector_query_seconds_total",
    "Virtual seconds charged to collection queries",
    labels=("mechanism",),
)
COLLECTOR_LATENCY = _REGISTRY.histogram(
    "repro_collector_query_latency_seconds",
    "Per-query latency distribution",
    buckets=LATENCY_BUCKETS_S,
    labels=("mechanism",),
)
COLLECTOR_ERRORS = _REGISTRY.counter(
    "repro_collector_errors_total",
    "Collection failures, by mechanism and kind",
    labels=("mechanism", "kind"),
)

# -- RAPL ------------------------------------------------------------------

RAPL_WRAPAROUNDS = _REGISTRY.counter(
    "repro_rapl_wraparounds_total",
    "True 32-bit energy-counter wraps elapsed between decoded reads "
    "(exactly one increment per wrap, even when a single delta spans "
    "several wraps)",
    labels=("domain",),
)
RAPL_WRAP_CORRECTIONS = _REGISTRY.counter(
    "repro_rapl_wrap_corrections_total",
    "Single-wrap corrections applied by RAPL consumers (what software "
    "can observe; undercounts when sampling slower than the wrap period)",
    labels=("mechanism",),
)

# -- BG/Q environmental database -------------------------------------------

ENVDB_POLLS = _REGISTRY.counter(
    "repro_envdb_polls_total",
    "Environmental-database polling sweeps completed",
)
ENVDB_RECORDS = _REGISTRY.counter(
    "repro_envdb_records_total",
    "Rows ingested into the environmental database",
    labels=("table",),
)
ENVDB_QUERY_ROWS = _REGISTRY.counter(
    "repro_envdb_query_rows_total",
    "Rows returned by environmental-database range queries",
)

# -- Sharded store ----------------------------------------------------------

STORE_BATCHES = _REGISTRY.counter(
    "repro_store_batches_total",
    "Write batches flushed into the sharded store",
)
STORE_BATCH_RECORDS = _REGISTRY.histogram(
    "repro_store_batch_records",
    "Records per flushed write batch",
    buckets=(1.0, 8.0, 64.0, 512.0, 4096.0, 32768.0),
)
STORE_RECORDS = _REGISTRY.counter(
    "repro_store_records_total",
    "Records accepted by the sharded store, by shard",
    labels=("shard",),
)
STORE_DROPPED = _REGISTRY.counter(
    "repro_store_dropped_records_total",
    "Records dropped because a shard's per-sweep ingest budget was "
    "exhausted, accounted to the saturated shard",
    labels=("shard",),
)
STORE_QUERIES = _REGISTRY.counter(
    "repro_store_queries_total",
    "Queries served by the sharded store, by kind",
    labels=("kind",),
)
STORE_QUERY_ROWS = _REGISTRY.counter(
    "repro_store_query_rows_total",
    "Rows (records or aggregate windows) returned by store queries",
)
STORE_CACHE_HITS = _REGISTRY.counter(
    "repro_store_cache_hits_total",
    "Aggregate-cache lookups served from cached windows",
)
STORE_CACHE_MISSES = _REGISTRY.counter(
    "repro_store_cache_misses_total",
    "Aggregate-cache lookups that rebuilt a shard's windows",
)
STORE_CACHE_INVALIDATIONS = _REGISTRY.counter(
    "repro_store_cache_invalidations_total",
    "Aggregate-cache windows rebuilt because a late record landed behind "
    "them, plus keyings evicted by the per-shard keying cap",
)

# -- Channel cache -----------------------------------------------------------

CACHE_HITS = _REGISTRY.counter(
    "repro_cache_hits_total",
    "Channel-cache rows whose every field was served from a "
    "freshness-window hit, by mechanism",
    labels=("mechanism",),
)
CACHE_MISSES = _REGISTRY.counter(
    "repro_cache_misses_total",
    "Channel-cache rows that needed a device collection (at least one "
    "field missed its freshness window), by mechanism",
    labels=("mechanism",),
)
CACHE_CROSSINGS_SAVED = _REGISTRY.counter(
    "repro_cache_crossings_saved_total",
    "Access-channel exchanges skipped by channel-cache hits "
    "(hit rows x the mechanism's queries_per_read)",
    labels=("mechanism",),
)
CACHE_INVALIDATIONS = _REGISTRY.counter(
    "repro_cache_invalidations_total",
    "Channel-cache device entries invalidated (chaos dark periods, "
    "capacity eviction, explicit clears)",
    labels=("mechanism",),
)

# -- Federated fleet ---------------------------------------------------------

FLEET_SWEEPS = _REGISTRY.counter(
    "repro_fleet_sweeps_total",
    "Environmental polling sweeps completed across the fleet, by site",
    labels=("site",),
)
FLEET_RECORDS = _REGISTRY.counter(
    "repro_fleet_records_total",
    "Records accepted into per-site stores during fleet sweeps, by site",
    labels=("site",),
)
FLEET_RESHARDS = _REGISTRY.counter(
    "repro_fleet_reshards_total",
    "Shard-rebalancing operations applied to a saturated site's store",
    labels=("site",),
)
FLEET_QUERIES = _REGISTRY.counter(
    "repro_fleet_queries_total",
    "Queries served by the federated store, by kind",
    labels=("kind",),
)
FLEET_PARTIALS_MERGED = _REGISTRY.counter(
    "repro_fleet_partials_merged_total",
    "Site-local partial aggregates merged centrally into fleet windows",
)

# -- SCIF ------------------------------------------------------------------

SCIF_MESSAGES = _REGISTRY.counter(
    "repro_scif_messages_total",
    "SCIF messages delivered between host and card endpoints",
)
SCIF_BYTES = _REGISTRY.counter(
    "repro_scif_bytes_total",
    "SCIF payload bytes delivered",
)

# -- MonEQ session lifecycle ------------------------------------------------

MONEQ_SESSIONS_STARTED = _REGISTRY.counter(
    "repro_moneq_sessions_started_total",
    "MonEQ profiling sessions initialized",
)
MONEQ_SESSIONS_FINALIZED = _REGISTRY.counter(
    "repro_moneq_sessions_finalized_total",
    "MonEQ profiling sessions finalized",
)
MONEQ_TICKS = _REGISTRY.counter(
    "repro_moneq_ticks_total",
    "Collection timer ticks fired across all sessions",
)
MONEQ_RECORDS = _REGISTRY.counter(
    "repro_moneq_records_total",
    "Records appended to MonEQ agent buffers",
)
MONEQ_BUFFER_FILL = _REGISTRY.gauge(
    "repro_moneq_buffer_fill_ratio",
    "Fill ratio of the fullest agent buffer in the most recent tick",
)
MONEQ_BUFFER_FULL = _REGISTRY.counter(
    "repro_moneq_buffer_full_total",
    "Appends refused because an agent's preallocated buffer was full",
)

# -- SPMD launcher ----------------------------------------------------------

LAUNCHER_RUNS = _REGISTRY.counter(
    "repro_launcher_runs_total",
    "SPMD programs run to completion",
)
LAUNCHER_RANKS = _REGISTRY.counter(
    "repro_launcher_ranks_total",
    "Ranks scheduled across completed runs",
)
LAUNCHER_MESSAGES = _REGISTRY.counter(
    "repro_launcher_messages_total",
    "Point-to-point messages across completed runs, by direction",
    labels=("direction",),
)
LAUNCHER_ERRORS = _REGISTRY.counter(
    "repro_launcher_errors_total",
    "SPMD runs ended by a failure, by kind",
    labels=("kind",),
)


# -- Chaos / fault injection -------------------------------------------------

CHAOS_FAULTS = _REGISTRY.counter(
    "repro_chaos_faults_injected_total",
    "Channel-crossing faults injected by the active fault plan, by "
    "mechanism and fault kind",
    labels=("mechanism", "kind"),
)
CHAOS_DARK_READS = _REGISTRY.counter(
    "repro_chaos_dark_reads_total",
    "Crossings degraded to a sensor-dark (NaN) reading after retries "
    "were exhausted, the timeout budget expired, or the circuit "
    "breaker failed fast",
    labels=("mechanism",),
)
CHAOS_STALE_READS = _REGISTRY.counter(
    "repro_chaos_stale_reads_total",
    "Crossings served stale by a wedged daemon: the exchange delivered "
    "promptly, but with the last bytes the daemon produced before it "
    "wedged (paper §II: a wedged pseudo-file serves data stale "
    "beyond the freshness window)",
    labels=("mechanism",),
)
CHAOS_BREAKER_TRANSITIONS = _REGISTRY.counter(
    "repro_chaos_breaker_transitions_total",
    "Circuit-breaker state transitions, by mechanism and entered state "
    "(closed, open, half_open)",
    labels=("mechanism", "state"),
)

# -- Retry layer -------------------------------------------------------------

RETRY_ATTEMPTS = _REGISTRY.counter(
    "repro_retry_attempts_total",
    "Channel exchanges re-issued after an injected fault",
    labels=("mechanism",),
)
RETRY_BACKOFF_SECONDS = _REGISTRY.counter(
    "repro_retry_backoff_seconds_total",
    "Modeled seconds spent backing off between retry attempts",
    labels=("mechanism",),
)
RETRY_EXHAUSTED = _REGISTRY.counter(
    "repro_retry_exhausted_total",
    "Crossings whose retries ran out (or whose timeout budget expired) "
    "without a delivered reading",
    labels=("mechanism",),
)

# -- Query service -----------------------------------------------------------

SERVICE_REQUESTS = _REGISTRY.counter(
    "repro_service_requests_total",
    "HTTP requests served by the query service, by endpoint and status",
    labels=("endpoint", "status"),
)
SERVICE_REQUEST_SECONDS = _REGISTRY.histogram(
    "repro_service_request_seconds",
    "Per-request wall time, by endpoint",
    buckets=(1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0),
    labels=("endpoint",),
)
SERVICE_DENIALS = _REGISTRY.counter(
    "repro_service_denials_total",
    "Requests refused by the tenant permission gate, by tenant",
    labels=("tenant",),
)
SERVICE_STREAM_ROWS = _REGISTRY.counter(
    "repro_service_stream_rows_total",
    "Readings delivered over streaming tails",
)
SERVICE_STREAM_GAPS = _REGISTRY.counter(
    "repro_service_stream_gaps_total",
    "Gap markers emitted by streaming tails for dark shards",
)

# -- Experiment execution engine --------------------------------------------

EXEC_TASKS = _REGISTRY.counter(
    "repro_exec_tasks_total",
    "Experiment tasks finished by the execution engine, by status "
    "(ok, error)",
    labels=("status",),
)
EXEC_TASK_SECONDS = _REGISTRY.histogram(
    "repro_exec_task_seconds",
    "Per-task wall time, by experiment",
    buckets=(1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0),
    labels=("experiment",),
)
EXEC_CACHE = _REGISTRY.counter(
    "repro_exec_cache_total",
    "Result-cache events (hit, miss, store, evict_corrupt)",
    labels=("event",),
)

# -- Scenario packs ----------------------------------------------------------

PACK_RUNS = _REGISTRY.counter(
    "repro_pack_runs_total",
    "Scenario-pack runs dispatched through the pack runner, by pack "
    "and scenario kind",
    labels=("pack", "kind"),
)
PACK_RUN_SECONDS = _REGISTRY.histogram(
    "repro_pack_run_seconds",
    "Wall time of one pack run end to end (compile, engine, assemble)",
    buckets=(1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0, 30.0),
    labels=("pack",),
)
PACK_VALIDATION_ERRORS = _REGISTRY.counter(
    "repro_pack_validation_errors_total",
    "Manifest validation failures (unknown key, bad type, unknown "
    "mechanism/experiment), each naming the offending field",
)


class CollectorInstrument:
    """Pre-bound handles for one mechanism's hot path.

    ``record_query`` is the common case — one query, known charged
    latency — and costs two counter adds plus one histogram observe.
    ``count_query`` is for mechanisms with no latency model (the env-DB
    range query) where a zero-second observation would only distort the
    latency histogram.
    """

    __slots__ = ("mechanism", "_queries", "_seconds", "_latency")

    def __init__(self, mechanism: str):
        self.mechanism = mechanism
        self._queries = COLLECTOR_QUERIES.labels(mechanism)
        self._seconds = COLLECTOR_QUERY_SECONDS.labels(mechanism)
        self._latency = COLLECTOR_LATENCY.labels(mechanism)

    def record_query(self, seconds: float, count: int = 1) -> None:
        """Record ``count`` queries of ``seconds`` charged latency *each*
        — the block-sampling engine batches a whole slab of identical
        ticks into one call."""
        self._queries.inc(count)
        self._seconds.inc(seconds * count)
        self._latency.observe(seconds, count)

    def count_query(self, count: int = 1) -> None:
        self._queries.inc(count)

    def record_error(self, kind: str) -> None:
        COLLECTOR_ERRORS.labels(self.mechanism, kind).inc()

    @property
    def queries(self) -> float:
        return self._queries.value

    def errors(self, kind: str) -> float:
        return COLLECTOR_ERRORS.value(self.mechanism, kind)


_INSTRUMENTS: dict[str, CollectorInstrument] = {}


def collector(mechanism: str) -> CollectorInstrument:
    """The (cached) instrument handle for one mechanism label."""
    instrument = _INSTRUMENTS.get(mechanism)
    if instrument is None:
        instrument = CollectorInstrument(mechanism)
        _INSTRUMENTS[mechanism] = instrument
    return instrument
