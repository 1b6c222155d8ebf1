"""Endpoint handlers and route resolution.

Every route is resolved to a bounded *endpoint label* (the pattern,
not the concrete path) so ``repro_service_requests_total`` stays at
fixed label cardinality no matter what clients ask for.  Handlers
take ``(service, request)`` and return a JSON-able payload, an
optional ``(payload, status)`` pair, plain text, or a line iterator
(streamed as NDJSON).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import repro.obs as obs
from repro.mech.registry import mechanisms
from repro.service.auth import Tenant
from repro.service.errors import (
    BadRequest,
    MethodNotAllowed,
    NotFound,
    Unavailable,
)
from repro.service.streaming import (
    dark_shards,
    reading_json,
    tail_stream,
)

#: Raw query kinds the /v2/query endpoint serves (tail has its own
#: cursor-shaped endpoints).
QUERY_ENDPOINT_KINDS = ("range", "prefix", "latest", "aggregate")

#: Upper bounds of one ``/v2/stream/tail`` request: rows per poll and
#: polls per stream, so every stream ends in bounded work.  A
#: ``/v2/tail`` page is capped at the same row count.
MAX_STREAM_PAGE = 4096
MAX_STREAM_BATCHES = 1000

_MISSING = object()


@dataclass
class Request:
    """One parsed request: method, path, query params, tenant."""

    method: str
    path: str
    params: dict[str, list[str]] = field(default_factory=dict)
    tenant: Tenant | None = None

    def param(self, name: str, default=_MISSING) -> str:
        values = self.params.get(name)
        if not values:
            if default is _MISSING:
                raise BadRequest(f"missing required parameter {name!r}")
            return default
        return values[-1]

    def float_param(self, name: str, default=_MISSING) -> float:
        raw = self.param(name, default)
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise BadRequest(
                f"parameter {name!r} must be a number, got {raw!r}"
            ) from None
        if not math.isfinite(value):
            raise BadRequest(
                f"parameter {name!r} must be a finite number, got {raw!r}")
        return value

    def int_param(self, name: str, default=_MISSING, minimum: int | None = None,
                  maximum: int | None = None) -> int:
        raw = self.param(name, default)
        try:
            value = int(raw)
        except (TypeError, ValueError):
            raise BadRequest(
                f"parameter {name!r} must be an integer, got {raw!r}"
            ) from None
        if minimum is not None and value < minimum:
            raise BadRequest(
                f"parameter {name!r} must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise BadRequest(
                f"parameter {name!r} must be <= {maximum}, got {value}")
        return value


# -- handlers ----------------------------------------------------------------


def index(svc, req: Request):
    from repro.api import API_VERSION

    return {
        "service": "repro.service",
        "api_version": API_VERSION,
        "endpoints": sorted(label for _, label in _ROUTES),
        "tables": list(svc.store.table_names),
        "tenant": req.tenant.name,
    }


def ready(svc, req: Request):
    """The nistoar-style readiness probe: cheap boolean checks, 503
    until every dependency is standing."""
    checks = {
        "store": svc.store is not None,
        "tables": bool(svc.store.table_names),
        "tenants": bool(svc.tenants.names()),
    }
    ok = all(checks.values())
    return {"ready": ok, "checks": checks}, (200 if ok else 503)


def health(svc, req: Request):
    """Liveness + degradation detail (dark shards make it ``degraded``,
    not dead — the stream keeps serving with gap markers)."""
    dark = sorted(dark_shards(svc.store, svc.now(), svc.fault_plan))
    status = "degraded" if dark else "ok"
    return {
        "status": status,
        "store": {
            "shards": svc.store.n_shards,
            "records": svc.store.records_ingested,
            "dropped": svc.store.dropped_records,
            "batches": svc.store.batches_flushed,
            "dark_shards": dark,
        },
        "mechanisms": {
            "registered": len(mechanisms()),
            "attached": sorted(svc.backends),
        },
    }


def metrics(svc, req: Request):
    """The Prometheus scrape: the whole obs registry, text exposition."""
    return obs.dump()


def tables(svc, req: Request):
    return {"tables": list(svc.store.table_names)}


def query(svc, req: Request, kind: str):
    """One planned query: the response carries the executed plan."""
    if kind not in QUERY_ENDPOINT_KINDS:
        raise NotFound(
            f"no query kind {kind!r}; have {list(QUERY_ENDPOINT_KINDS)}"
        )
    table = req.param("table")
    prefix = req.param("prefix", "")
    if kind == "aggregate" and svc.fleet is not None:
        return _federated_aggregate(svc, req, table, prefix)
    plan = svc.store.plan(kind, table, prefix)
    if kind == "aggregate":
        dark = dark_shards(svc.store, svc.now(), svc.fault_plan)
        hit = sorted(dark.intersection(plan.shards))
        if hit:
            raise Unavailable(
                f"aggregate over table {table!r} needs shards {hit} which "
                f"are dark under the active fault plan",
                origin="repro.chaos",
            )
        rows = [
            {
                "location": a.location,
                "field": a.field,
                "window_start": a.window_start,
                "window_s": a.window_s,
                "count": a.count,
                "min": a.minimum,
                "mean": a.mean,
                "max": a.maximum,
            }
            for a in svc.store.aggregate(
                table, req.param("field"), req.float_param("t0"),
                req.float_param("t1"), req.float_param("window"), prefix,
            )
        ]
    elif kind == "range":
        rows = [reading_json(r) for r in svc.store.range(
            table, req.float_param("t0"), req.float_param("t1"), prefix)]
    elif kind == "prefix":
        if not prefix:
            raise BadRequest("prefix queries need a non-empty 'prefix'")
        rows = [reading_json(r) for r in svc.store.prefix(table, prefix)]
    else:  # latest
        rows = [reading_json(r) for _, r in
                sorted(svc.store.latest(table, prefix).items())]
    return {
        "kind": kind,
        "table": table,
        "plan": {
            "shards": list(plan.shards),
            "fan_out": plan.fan_out,
            "uses_cache": plan.uses_cache,
        },
        "count": len(rows),
        "rows": rows,
    }


def _federated_aggregate(svc, req: Request, table: str, prefix: str):
    """Fleet-scale aggregate: scatter to every routed site's cached
    partials, merge centrally.  ``prefix`` follows the federation's
    ``site/location`` convention (empty fans out fleet-wide);
    ``rollup=1`` folds every partial into one fleet-wide window
    series at location ``"fleet"``."""
    rollup = req.param("rollup", "0").lower() in ("1", "true", "yes")
    fplan = svc.fleet.aggregate_plan(table, prefix, rollup=rollup)
    now = svc.now()
    for site, site_plan in fplan.per_site.items():
        dark = dark_shards(svc.fleet.sites[site], now, svc.fault_plan, site)
        hit = sorted(dark.intersection(site_plan.shards))
        if hit:
            raise Unavailable(
                f"aggregate over table {table!r} needs site {site!r} "
                f"shards {hit} which are dark under the active fault plan",
                origin="repro.chaos",
            )
    rows = [
        {
            "location": a.location,
            "field": a.field,
            "window_start": a.window_start,
            "window_s": a.window_s,
            "count": a.count,
            "min": a.minimum,
            "mean": a.mean,
            "max": a.maximum,
        }
        for a in svc.fleet.aggregate(
            table, req.param("field"), req.float_param("t0"),
            req.float_param("t1"), req.float_param("window"), prefix,
            rollup=rollup,
        )
    ]
    return {
        "kind": "aggregate",
        "table": table,
        "plan": {
            "federated": True,
            "sites": sorted(fplan.per_site),
            "fan_out": fplan.fan_out,
            "rollup": rollup,
            "uses_cache": all(p.uses_cache
                              for p in fplan.per_site.values()),
        },
        "count": len(rows),
        "rows": rows,
    }


def tail(svc, req: Request):
    """One tail page: fresh readings past a cursor, plus the resume
    cursor (the paged, non-streaming face of the tail)."""
    table = req.param("table")
    batch = svc.store.tail(
        table,
        cursor=req.int_param("cursor", 0),
        location_prefix=req.param("prefix", ""),
        limit=req.int_param("limit", 256, minimum=1,
                            maximum=MAX_STREAM_PAGE),
    )
    return {
        "table": table,
        "cursor": batch.cursor,
        "count": len(batch.readings),
        "rows": [reading_json(r) for r in batch.readings],
    }


def stream_tail(svc, req: Request):
    """The chunked NDJSON stream (see :mod:`repro.service.streaming`).
    Every parameter is checked before the stream opens, so a bad one is
    a 400, never an error out of the running stream."""
    table = svc.store._check_table(req.param("table"))
    cursor = (None if req.param("cursor", "now") == "now"
              else req.int_param("cursor", minimum=0))
    return tail_stream(
        svc.store, table,
        cursor=cursor,
        location_prefix=req.param("prefix", ""),
        page=req.int_param("page", 256, minimum=1, maximum=MAX_STREAM_PAGE),
        batches=req.int_param("batches", 10, minimum=1,
                              maximum=MAX_STREAM_BATCHES),
        now=svc.now,
        pump=svc.pump,
        plan=lambda: svc.fault_plan,
    )


def mech_list(svc, req: Request):
    """The mechanism registry, with live-attachment state."""
    rows = []
    for name, spec in mechanisms().items():
        rows.append({
            "mechanism": name,
            "platform": spec.platform,
            "channel": spec.channel.name,
            "permission": spec.channel.permission,
            "privileged": spec.channel.requires_privilege,
            "min_interval_s": spec.min_interval_s,
            "fields": list(spec.fields),
            "attached": name in svc.backends,
        })
    return {"count": len(rows), "mechanisms": rows}


def mech_read(svc, req: Request, name: str):
    """One credentialed read: the tenant's POSIX identity crosses the
    mechanism's access channel, so a root-gated path denies exactly
    where the real chardev would (rendered as the 403 envelope)."""
    backend = svc.backends.get(name)
    if backend is None:
        known = name in mechanisms()
        raise NotFound(
            f"mechanism {name!r} is registered but not attached to this "
            f"service" if known else f"no mechanism {name!r}"
        )
    t = req.float_param("t", svc.now())
    values = backend.read_at(t, creds=req.tenant.credentials,
                             plan=svc.fault_plan)
    return {
        "mechanism": name,
        "label": backend.label,
        "t": t,
        "tenant": req.tenant.name,
        "values": values,
    }


# -- resolution ---------------------------------------------------------------

#: (matcher, endpoint label).  Matchers take the split path and return
#: a zero-arg-ready (handler, extra args) pair or None.
_ROUTES = []


def _route(label):
    def register(matcher):
        _ROUTES.append((matcher, label))
        return matcher
    return register


@_route("/")
def _m_index(parts):
    return (index, ()) if parts == [] else None


@_route("/ready")
def _m_ready(parts):
    return (ready, ()) if parts == ["ready"] else None


@_route("/health")
def _m_health(parts):
    return (health, ()) if parts == ["health"] else None


@_route("/metrics")
def _m_metrics(parts):
    return (metrics, ()) if parts == ["metrics"] else None


@_route("/v2/tables")
def _m_tables(parts):
    return (tables, ()) if parts == ["v2", "tables"] else None


@_route("/v2/query/<kind>")
def _m_query(parts):
    if len(parts) == 3 and parts[:2] == ["v2", "query"]:
        return (query, (parts[2],))
    return None


@_route("/v2/tail")
def _m_tail(parts):
    return (tail, ()) if parts == ["v2", "tail"] else None


@_route("/v2/stream/tail")
def _m_stream(parts):
    return (stream_tail, ()) if parts == ["v2", "stream", "tail"] else None


@_route("/v2/mech")
def _m_mech(parts):
    return (mech_list, ()) if parts == ["v2", "mech"] else None


@_route("/v2/mech/<name>/read")
def _m_mech_read(parts):
    if len(parts) == 4 and parts[0] == "v2" and parts[1] == "mech" \
            and parts[3] == "read":
        return (mech_read, (parts[2],))
    return None


def resolve(req: Request):
    """(endpoint label, bound handler) for one request; 404/405 here."""
    parts = [p for p in req.path.split("/") if p]
    for matcher, label in _ROUTES:
        hit = matcher(parts)
        if hit is not None:
            if req.method != "GET":
                raise MethodNotAllowed(
                    f"{req.method} not supported on {label} (GET only)"
                )
            handler, args = hit
            return label, lambda svc: handler(svc, req, *args)
    raise NotFound(f"no endpoint {req.path!r}")
