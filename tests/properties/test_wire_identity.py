"""Property: rows written from the columns are the bytes ``json.dumps``
writes for the same rows read as records.

The store writes each row's JSON text straight from its shard columns
(:meth:`repro.store.engine.Rows.json`), and the service pages those
texts into its responses.  The oracle reads the same selection as
:class:`~repro.store.Reading` records, builds the wire dict of each and
``json.dumps(..., sort_keys=True)`` the payload.  The columns here are
adversarial: NaN, ±inf, -0.0, subnormal and large values; locations,
mechanisms and field names with quotes, backslashes, control and
non-ASCII characters and ``%``; several schemas in one table; and
timestamp ties (``0.0`` against ``-0.0`` too) merged across shards.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import ServiceClient
from repro.service.app import ServiceApp
from repro.store import Batch, BatchBlock, ShardedStore

ODD_CHARS = ['"', "\\", "\x00", "\x1f", "\n", "\x7f", "é", "€", "😀",
             "%", "s", "a", "Z", " "]
VALUES = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                          0.0, 5e-324, 1e16, 1e-7, 1.5, -2.5e300]) \
    | st.floats(allow_nan=True, allow_infinity=True)
TIMES = st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e-7, 1e16])
odd_text = st.text(st.sampled_from(ODD_CHARS + ["\ud800"]), max_size=4)
# Locations go through the shard map's UTF-8 hash, so no lone surrogate.
locations = st.builds(
    lambda rack, rest: f"R{rack:02d}-{rest}",
    st.integers(0, 5), st.text(st.sampled_from(ODD_CHARS), max_size=4))
schemas = st.tuples(
    st.builds(lambda s: "m" + s, odd_text),
    st.lists(odd_text, unique=True, max_size=4).map(tuple))


@st.composite
def stores(draw):
    """A store with 1–3 batches over 1–3 schemas in one table."""
    store = ShardedStore(("t",), n_shards=draw(st.integers(1, 4)))
    kinds = draw(st.lists(schemas, min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.lists(st.tuples(st.integers(0, len(kinds) - 1),
                                       TIMES, locations),
                             min_size=1, max_size=12))
        blocks = []
        for kind, (mechanism, fields) in enumerate(kinds):
            mine = [(p, row) for p, row in enumerate(rows) if row[0] == kind]
            if not mine:
                continue
            values = draw(st.lists(VALUES, min_size=len(mine) * len(fields),
                                   max_size=len(mine) * len(fields)))
            blocks.append(BatchBlock(
                table="t", mechanism=mechanism, fields=fields,
                timestamps=[row[1] for _, row in mine],
                locations=[row[2] for _, row in mine],
                values=np.array(values, np.float64).reshape(
                    len(mine), len(fields)),
                positions=[p for p, _ in mine]))
        store.ingest_batch(Batch(tuple(blocks)), 60.0)
    return store


def reading_dict(r) -> dict:
    return {"t": r.timestamp, "location": r.location,
            "mechanism": r.mechanism, "values": dict(r.values)}


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


prefixes = st.sampled_from(["", "R0", "R01", "R02-", "R03-\\", "R9"])


@settings(max_examples=150, deadline=None)
@given(store=stores(), prefix=prefixes, limit=st.integers(1, 9),
       window=st.sampled_from([(-1e300, 1e300), (-0.0, 0.0), (0.0, 2.5),
                               (1.0, 1e16)]))
def test_rows_json_is_json_dumps_of_the_readings(store, prefix, limit,
                                                  window):
    selections = [store.range_rows("t", *window, prefix),
                  store.latest_rows("t", prefix),
                  store.tail("t", 0, prefix).rows]
    if prefix:
        selections.append(store.prefix_rows("t", prefix))
    cursor = 0
    while True:
        batch = store.tail("t", cursor, prefix, limit=limit)
        selections.append(batch.rows)
        if not len(batch):
            break
        cursor = batch.cursor
    for rows in selections:
        assert rows.json() == [dumps(reading_dict(r))
                               for r in rows.readings()]


@settings(max_examples=60, deadline=None)
@given(store=stores(), prefix=prefixes, limit=st.integers(1, 9))
def test_responses_are_json_dumps_of_the_dict_payload(store, prefix, limit):
    client = ServiceClient(ServiceApp(store))
    cursor = 0
    while True:
        batch = store.tail("t", cursor, prefix, limit=limit)
        body = client.get("/v2/tail", {"table": "t", "cursor": cursor,
                                       "prefix": prefix,
                                       "limit": limit}).body.decode()
        assert body == dumps({"table": "t", "cursor": batch.cursor,
                              "count": len(batch),
                              "rows": [reading_dict(r)
                                       for r in batch.readings]})
        if not len(batch):
            break
        cursor = batch.cursor
    lines = client.get("/v2/stream/tail", {
        "table": "t", "cursor": 0, "prefix": prefix, "page": limit,
        "batches": 3}).body.decode().splitlines(keepends=True)
    rows = [line for line in lines if "marker" not in json.loads(line)]
    every = [dumps(reading_dict(r)) + "\n"
             for r in store.tail("t", 0, prefix).readings]
    assert rows == every[:len(rows)]
    assert len(rows) == min(len(every), 3 * limit)
    for kind, extra in (("range", {"t0": -1e300, "t1": 1e300}),
                        ("latest", {})):
        plan = store.plan(kind, "t", prefix)
        found = (store.range("t", -1e300, 1e300, prefix) if kind == "range"
                 else [r for _, r in sorted(store.latest("t", prefix).items())])
        body = client.get(f"/v2/query/{kind}", {
            "table": "t", "prefix": prefix, **extra}).body.decode()
        assert body == dumps({
            "kind": kind, "table": "t",
            "plan": {"shards": list(plan.shards), "fan_out": plan.fan_out,
                     "uses_cache": plan.uses_cache},
            "count": len(found), "rows": [reading_dict(r) for r in found]})
