"""Endpoint handlers and route resolution.

Every route is resolved to a bounded *endpoint label* (the pattern,
not the concrete path) so ``repro_service_requests_total`` stays at
fixed label cardinality no matter what clients ask for.  Handlers
take ``(service, request)`` and return a JSON-able payload, an
optional ``(payload, status)`` pair, :class:`JsonText` already
written, plain text, or a line iterator (streamed as NDJSON).

Responses that carry rows write them from the store's columns
(:meth:`~repro.store.engine.Rows.json`) into :class:`JsonText`: the
same bytes ``json.dumps(payload, sort_keys=True)`` gives, with no
record or dict built per row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import repro.obs as obs
from repro.core.moneq.backends import mechanisms
from repro.service.auth import Tenant
from repro.service.errors import (
    BadRequest,
    MethodNotAllowed,
    NotFound,
    Unavailable,
)
from repro.service.streaming import dark_shards, tail_stream
from repro.store.wire import number_json, object_json

#: Raw query kinds the /v2/query endpoint serves (tail has its own
#: cursor-shaped endpoints).
QUERY_ENDPOINT_KINDS = ("range", "prefix", "latest", "aggregate")

#: Upper bounds of one ``/v2/stream/tail`` request: rows per poll and
#: polls per stream, so every stream ends in bounded work.  A
#: ``/v2/tail`` page is capped at the same row count.
MAX_STREAM_PAGE = 4096
MAX_STREAM_BATCHES = 1000

#: The latest virtual time a ``/v2/mech/<name>/read`` may read at.  A
#: read integrates the device's energy counters from t=0 on a 1 ms
#: grid, at about 24 ns per grid point in bounded memory: 600 s costs
#: ~0.03 s, an hour ~0.09 s, so an unbounded ``t`` would let one
#: request hold the service for minutes.
MAX_READ_T_S = 600.0

_MISSING = object()

#: One aggregate window's response row, keys in sorted order (the
#: fleet-live consumer parses these keys from the rollup).
_AGGREGATE_JSON = ('{"count": %s, "field": %s, "location": %s, "max": %s, '
                   '"mean": %s, "min": %s, "window_s": %s, '
                   '"window_start": %s}')


class JsonText(str):
    """A response body already written as JSON text."""


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
        "endpoints": sorted(label for label, _ in ROUTES),
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
        rows = [_aggregate_json(a) for a in svc.store.aggregate(
            table, req.param("field"), req.float_param("t0"),
            req.float_param("t1"), req.float_param("window"), prefix,
        )]
    elif kind == "range":
        rows = svc.store.range_rows(table, req.float_param("t0"),
                                    req.float_param("t1"), prefix).json()
    elif kind == "prefix":
        if not prefix:
            raise BadRequest("prefix queries need a non-empty 'prefix'")
        rows = svc.store.prefix_rows(table, prefix).json()
    else:  # latest
        rows = svc.store.latest_rows(table, prefix).json()
    return _with_rows({
        "kind": kind,
        "table": table,
        "plan": {
            "shards": list(plan.shards),
            "fan_out": plan.fan_out,
            "uses_cache": plan.uses_cache,
        },
        "count": len(rows),
    }, rows)


def _with_rows(payload: dict, rows: list[str]) -> JsonText:
    """``payload`` plus its ``rows``, each already JSON text, written as
    ``json.dumps(..., sort_keys=True)`` writes the whole object."""
    members = {name: json.dumps(value, sort_keys=True)
               for name, value in payload.items()}
    members["rows"] = "[" + ", ".join(rows) + "]"
    return JsonText(object_json(members))


def _aggregate_json(a) -> str:
    """One aggregate window as its response row's JSON text."""
    return _AGGREGATE_JSON % (
        number_json(a.count), encode_basestring_ascii(a.field),
        encode_basestring_ascii(a.location), number_json(a.maximum),
        number_json(a.mean), number_json(a.minimum),
        number_json(a.window_s), number_json(a.window_start))


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
    rows = [_aggregate_json(a) for a in svc.fleet.aggregate(
        table, req.param("field"), req.float_param("t0"),
        req.float_param("t1"), req.float_param("window"), prefix,
        rollup=rollup,
    )]
    return _with_rows({
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
    }, rows)


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
    rows = batch.rows.json()
    return _with_rows({"table": table, "cursor": batch.cursor,
                       "count": len(rows)}, rows)


def stream_tail(svc, req: Request):
    """The chunked NDJSON stream (see :mod:`repro.service.streaming`).
    Every parameter is checked before the stream opens, so a bad one is
    a 400, never an error out of the running stream."""
    table = svc.store._check_table(req.param("table"))
    cursor = (None if req.param("cursor", "now") == "now"
              else req.int_param("cursor", minimum=0))
    if cursor is not None:
        svc.store._check_cursor(cursor)
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
    """The declared mechanisms, with live-attachment state."""
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
    if not 0.0 <= t <= MAX_READ_T_S:
        raise BadRequest(
            f"parameter 't' must be in [0, {MAX_READ_T_S}], got {t}")
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

#: (endpoint label, handler), in match order.  A ``<…>`` segment of a
#: label matches exactly one path segment, which reaches the handler
#: as a positional argument after ``(service, request)``.
ROUTES = (
    ("/", index),
    ("/ready", ready),
    ("/health", health),
    ("/metrics", metrics),
    ("/v2/tables", tables),
    ("/v2/query/<kind>", query),
    ("/v2/tail", tail),
    ("/v2/stream/tail", stream_tail),
    ("/v2/mech", mech_list),
    ("/v2/mech/<name>/read", mech_read),
)


def resolve(req: Request):
    """(endpoint label, bound handler) for one request; 404/405 here."""
    parts = [p for p in req.path.split("/") if p]
    for label, handler in ROUTES:
        segments = label.split("/")[1:] if label != "/" else []
        if len(segments) != len(parts):
            continue
        args = []
        for segment, part in zip(segments, parts):
            if segment[0] == "<":
                args.append(part)
            elif segment != part:
                break
        else:
            if req.method != "GET":
                raise MethodNotAllowed(
                    f"{req.method} not supported on {label} (GET only)"
                )
            return label, lambda svc: handler(svc, req, *args)
    raise NotFound(f"no endpoint {req.path!r}")
