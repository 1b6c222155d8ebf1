"""Byte identity of the responses written from the store's columns.

Responses that carry rows are written straight from the shard columns.
The oracle here is the path that writing replaces: read the rows as
:class:`~repro.store.Reading` records, turn each into its wire dict,
and ``json.dumps(payload, sort_keys=True)`` the whole payload.  The
oracle handlers stand in for the real ones in the route table, the
same requests go to a fresh rig through both, and every response body
— and the ``/metrics`` counters they leave behind — must be the same
bytes.
"""

import json

import pytest

import repro.obs as obs
from repro.fleet import build_fleet
from repro.obs.instruments import SERVICE_STREAM_GAPS, SERVICE_STREAM_ROWS
from repro.service import ServiceClient, build_rig, routes, service_for_fleet
from repro.service.errors import BadRequest
from repro.service.streaming import dark_shards


def reading_dict(r) -> dict:
    return {"t": r.timestamp, "location": r.location,
            "mechanism": r.mechanism, "values": dict(r.values)}


def aggregate_dict(a) -> dict:
    return {"location": a.location, "field": a.field,
            "window_start": a.window_start, "window_s": a.window_s,
            "count": a.count, "min": a.minimum, "mean": a.mean,
            "max": a.maximum}


def plan_dict(plan) -> dict:
    return {"shards": list(plan.shards), "fan_out": plan.fan_out,
            "uses_cache": plan.uses_cache}


def _line(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


# -- the oracle handlers: a Reading and a dict per row -----------------------


def oracle_query(svc, req, kind):
    table = req.param("table")
    prefix = req.param("prefix", "")
    if kind == "aggregate":
        args = (table, req.param("field"), req.float_param("t0"),
                req.float_param("t1"), req.float_param("window"), prefix)
        if svc.fleet is not None:
            rollup = req.param("rollup", "0").lower() in ("1", "true", "yes")
            fplan = svc.fleet.aggregate_plan(table, prefix, rollup=rollup)
            plan = {"federated": True, "sites": sorted(fplan.per_site),
                    "fan_out": fplan.fan_out, "rollup": rollup,
                    "uses_cache": all(p.uses_cache
                                      for p in fplan.per_site.values())}
            found = svc.fleet.aggregate(*args, rollup=rollup)
        else:
            plan = plan_dict(svc.store.plan(kind, table, prefix))
            found = svc.store.aggregate(*args)
        rows = [aggregate_dict(a) for a in found]
    else:
        plan = plan_dict(svc.store.plan(kind, table, prefix))
        if kind == "range":
            found = svc.store.range(table, req.float_param("t0"),
                                    req.float_param("t1"), prefix)
        elif kind == "prefix":
            if not prefix:
                raise BadRequest("prefix queries need a non-empty 'prefix'")
            found = svc.store.prefix(table, prefix)
        else:
            found = [r for _, r in
                     sorted(svc.store.latest(table, prefix).items())]
        rows = [reading_dict(r) for r in found]
    return {"kind": kind, "table": table, "plan": plan,
            "count": len(rows), "rows": rows}


def oracle_tail(svc, req):
    table = req.param("table")
    batch = svc.store.tail(
        table, cursor=req.int_param("cursor", 0),
        location_prefix=req.param("prefix", ""),
        limit=req.int_param("limit", 256, minimum=1,
                            maximum=routes.MAX_STREAM_PAGE))
    return {"table": table, "cursor": batch.cursor,
            "count": len(batch.readings),
            "rows": [reading_dict(r) for r in batch.readings]}


def oracle_stream(svc, req):
    table = req.param("table")
    cursor = (None if req.param("cursor", "now") == "now"
              else req.int_param("cursor", minimum=0))
    prefix = req.param("prefix", "")
    page = req.int_param("page", 256, minimum=1,
                         maximum=routes.MAX_STREAM_PAGE)
    batches = req.int_param("batches", 10, minimum=1,
                            maximum=routes.MAX_STREAM_BATCHES)
    store = svc.store

    def lines():
        position = store.ingest_cursor if cursor is None else cursor
        yield _line({"marker": "open", "table": table, "cursor": position,
                     "prefix": prefix})
        known_dark: set[int] = set()
        for poll in range(1, batches + 1):
            t = svc.now()
            dark = dark_shards(store, t, svc.fault_plan)
            fresh_dark = sorted(dark - known_dark)
            if fresh_dark:
                SERVICE_STREAM_GAPS.inc(len(fresh_dark))
                yield _line({"marker": "gap", "shards": fresh_dark, "t": t,
                             "cursor": position,
                             "detail": "shards dark under the active fault "
                                       "plan; rows from them may be missing"})
            known_dark = dark
            batch = store.tail(table, position, prefix, limit=page)
            position = batch.cursor
            if batch.readings:
                SERVICE_STREAM_ROWS.inc(len(batch.readings))
                for reading in batch.readings:
                    yield _line(reading_dict(reading))
            if svc.pump is not None:
                svc.pump(poll)
        yield _line({"marker": "end", "cursor": position, "polls": batches})

    return lines()


ORACLE_ROUTES = tuple(
    (label, {"/v2/query/<kind>": oracle_query, "/v2/tail": oracle_tail,
             "/v2/stream/tail": oracle_stream}.get(label, handler))
    for label, handler in routes.ROUTES
)


def _served(make_client, requests, monkeypatch, oracle: bool):
    """Every response (status, content type, body) of ``requests`` sent
    to a fresh rig, and the non-zero ``/metrics`` samples they left
    (minus the wall-clock latency histogram)."""
    with monkeypatch.context() as patch:
        if oracle:
            patch.setattr(routes, "ROUTES", ORACLE_ROUTES)
        obs.reset()
        client = make_client()
        out = []
        for path, params in requests:
            response = client.get(path, params)
            out.append((path, params, response.status,
                        response.headers["Content-Type"], response.body))
        scrape = client.get("/metrics").body.decode()
    # Samples, not text: the registry is process-global, so children
    # an earlier run created linger at 0 and shift the listing order.
    counters = {}
    for line in scrape.splitlines():
        if line.startswith("#") or "_seconds" in line:
            continue
        sample, value = line.rsplit(" ", 1)
        if float(value):
            counters[sample] = value
    return out, counters


def _assert_same(make_client, requests, monkeypatch):
    got, got_counters = _served(make_client, requests, monkeypatch, False)
    want, want_counters = _served(make_client, requests, monkeypatch, True)
    for mine, theirs in zip(got, want):
        assert mine == theirs
    assert len(got) == len(want)
    assert got_counters == want_counters
    return got


RIG_REQUESTS = [
    ("/v2/tail", {"table": "bpm"}),
    ("/v2/tail", {"table": "bpm", "cursor": 5, "limit": 7}),
    ("/v2/tail", {"table": "fan", "cursor": 3, "limit": 4096,
                  "prefix": "R01"}),
    ("/v2/tail", {"table": "temperature", "cursor": 2, "prefix": "R0"}),
    ("/v2/stream/tail", {"table": "bpm", "cursor": 0, "page": 13,
                         "batches": 3}),
    ("/v2/stream/tail", {"table": "coolant", "cursor": 4, "page": 5,
                         "batches": 2, "prefix": "R00"}),
    ("/v2/stream/tail", {"table": "fan", "batches": 2}),
    ("/v2/query/range", {"table": "bpm", "t0": 0.0, "t1": 1e9}),
    ("/v2/query/range", {"table": "fan", "t0": 60.0, "t1": 125.0,
                         "prefix": "R01"}),
    ("/v2/query/range", {"table": "coolant", "t0": 500.0, "t1": 600.0}),
    ("/v2/query/prefix", {"table": "temperature", "prefix": "R0"}),
    ("/v2/query/prefix", {"table": "bpm", "prefix": "R01-M1"}),
    ("/v2/query/latest", {"table": "bpm"}),
    ("/v2/query/latest", {"table": "fan", "prefix": "R00"}),
    ("/v2/query/aggregate", {"table": "bpm", "field": "input_power_w",
                             "t0": 0.0, "t1": 1e6, "window": 60.0}),
    ("/v2/query/aggregate", {"table": "coolant", "field": "inlet_c",
                             "t0": 0.0, "t1": 1e6, "window": 7.5,
                             "prefix": "R01"}),
    ("/v2/tail", {"table": "bpm", "cursor": 10 ** 9}),
    ("/v2/query/prefix", {"table": "bpm"}),
]


@pytest.mark.tier1
def test_rig_responses_match_the_dict_path(monkeypatch):
    def make_client():
        # Racks R00 and R02 share a shard, R01 and R03 the other one, so
        # merged results interleave the shards' rows.
        return build_rig(racks=4, shards=4, sweeps=2, seed=21)[2]

    got = _assert_same(make_client, RIG_REQUESTS, monkeypatch)
    statuses = [status for _, _, status, _, _ in got]
    assert statuses[:-2] == [200] * (len(got) - 2)
    assert statuses[-2:] == [400, 400]
    assert json.loads(got[0][4])["count"] > 0


FLEET_REQUESTS = [
    ("/v2/tail", {"table": "bpm", "limit": 256}),
    ("/v2/tail", {"table": "fan", "cursor": 10, "limit": 3}),
    ("/v2/stream/tail", {"table": "bpm", "cursor": 0, "page": 17,
                         "batches": 2}),
    ("/v2/query/range", {"table": "bpm", "t0": 0.0, "t1": 1e9}),
    ("/v2/query/latest", {"table": "coolant"}),
    ("/v2/query/aggregate", {"table": "bpm", "field": "input_power_w",
                             "t0": 0.0, "t1": 1e6, "window": 60.0,
                             "rollup": 1}),
    ("/v2/query/aggregate", {"table": "bpm", "field": "input_power_w",
                             "t0": 0.0, "t1": 1e6, "window": 120.0}),
    ("/v2/query/aggregate", {"table": "bpm", "field": "output_power_w",
                             "t0": 30.0, "t1": 400.0, "window": 45.0,
                             "prefix": "site01/R01", "rollup": "true"}),
]


@pytest.mark.tier1
def test_fleet_responses_match_the_dict_path(monkeypatch):
    def make_client():
        fleet = build_fleet(n_sites=2, racks=3, seed=5, poll_interval_s=60.0,
                            shards_per_site=3)
        fleet.advance_to(6 * 60.0 + 30.0)
        return ServiceClient(service_for_fleet(fleet))

    got = _assert_same(make_client, FLEET_REQUESTS, monkeypatch)
    assert [status for _, _, status, _, _ in got] == [200] * len(got)
    rollup = json.loads(got[5][4])
    assert rollup["count"] > 1
    assert {row["location"] for row in rollup["rows"]} == {"fleet"}
