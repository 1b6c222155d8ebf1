"""Fuzz every ``/v2`` route's parameters.

Whatever a client sends, the answer is a 200 or a structured 4xx
envelope: no exception escapes :class:`ServiceApp` (a WSGI server would
turn it into a bare 500), a stream never fails after its 200 went out,
and no request runs away — every route's work is bounded by its
parameters' validated ranges.
"""

import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.moneq.backends import mechanisms
from repro.fleet import build_fleet
from repro.service import ServiceClient, build_rig, service_for_fleet
from repro.service.app import ServiceApp
from repro.testbeds import fleet_node

NAMES = ("table", "t0", "t1", "prefix", "field", "window", "rollup",
         "cursor", "limit", "page", "batches", "t", "kind", "extra")
EDGE_VALUES = (
    "", " ", "0", "-0", "1", "-1", "7", "60", "256", "4096", "4097", "1000",
    "1001", "0.5", "-0.0", "1e-320", "1e308", "-1e308", "1e999", "nan",
    "NaN", "inf", "-inf", "Infinity", "now", "true", "yes", "abc", "0x10",
    "1_000", "9" * 40, "bpm", "fan", "coolant", "temperature", "nope",
    "input_power_w", "board_c", "R0", "R01", "R01-M0", "site00",
    "site01/R00", "site9/R00", "/", "%", "\"", "\\", "\x00", "é", "😀",
)
values = st.sampled_from(EDGE_VALUES) \
    | st.integers(-10 ** 20, 10 ** 20).map(str) \
    | st.floats(allow_nan=True, allow_infinity=True).map(repr) \
    | st.text(max_size=8)
#: A valid query per route; a drawn request keeps, drops or replaces
#: each of its parameters, and may add others.
VALID = {
    "/v2/tail": {"table": "bpm", "cursor": "0", "limit": "256",
                 "prefix": "R0"},
    "/v2/stream/tail": {"table": "fan", "cursor": "0", "page": "7",
                        "batches": "3", "prefix": ""},
    "/v2/query/range": {"table": "bpm", "t0": "0", "t1": "1e9",
                        "prefix": "R01"},
    "/v2/query/prefix": {"table": "coolant", "prefix": "R0"},
    "/v2/query/latest": {"table": "temperature", "prefix": ""},
    "/v2/query/aggregate": {"table": "bpm", "field": "input_power_w",
                            "t0": "0", "t1": "200", "window": "60",
                            "rollup": "1", "prefix": ""},
    "/v2/mech/read": {"t": "10"},
}
paths = st.sampled_from(
    ["/v2/tables", "/v2/mech", "/v2/query/tail", "/v2/query/nope",
     "/v2/mech/nope/read"] + [path for path in VALID if "mech" not in path]
    + [f"/v2/mech/{name}/read" for name in sorted(mechanisms())])
tenants = st.sampled_from([None, None, None, "root", "hpcuser", "intruder"])


@st.composite
def requests(draw):
    path = draw(paths)
    valid = VALID.get(path if "/mech/" not in path else "/v2/mech/read", {})
    query = {}
    for name in NAMES:
        choice = draw(st.sampled_from(("keep",) * 4 + ("drop", "fuzz")
                                      if name in valid else
                                      ("drop",) * 4 + ("fuzz",)))
        if choice == "keep":
            query[name] = valid[name]
        elif choice == "fuzz":
            query[name] = draw(values)
    return path, query


@pytest.fixture(scope="module")
def clients():
    """A machine service (no stream pump, so requests leave the store
    as it is) and a fleet service, both with every mechanism attached."""
    machine, _, _ = build_rig(racks=2, shards=2, sweeps=2, seed=9)
    _, backends = fleet_node(seed=0xF22, hostname="fuzz-host")
    machine_app = ServiceApp(machine.envdb.store, backends=backends,
                             clock=machine.clock)
    fleet = build_fleet(n_sites=2, racks=1, seed=9, poll_interval_s=60.0,
                        shards_per_site=2)
    fleet.advance_to(150.0)
    fleet_app = service_for_fleet(fleet, backends=backends)
    return ServiceClient(machine_app), ServiceClient(fleet_app)


def _check(client, path, query, tenant):
    started = time.perf_counter()
    response = client.get(path, query, tenant=tenant)
    body = response.body  # drains a stream to its end
    assert time.perf_counter() - started < 30.0, (path, query)
    if response.status == 200:
        if response.headers["Content-Type"] == "application/json":
            json.loads(body)
        return
    assert 400 <= response.status < 500, (path, query, response.status, body)
    error = json.loads(body)["error"]
    assert error["status"] == response.status
    assert error["title"] and error["detail"]


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=requests(), tenant=tenants, fleet=st.booleans())
def test_every_request_gets_a_200_or_a_structured_4xx(clients, drawn,
                                                      tenant, fleet):
    _check(clients[fleet], *drawn, tenant)


@pytest.mark.parametrize("path, query", [
    ("/v2/mech/rapl_msr/read", {"t": "-1"}),
    ("/v2/mech/nvml/read", {"t": "1e6"}),
    ("/v2/mech/rapl_powercap/read", {"t": "1e308"}),
    ("/v2/stream/tail", {"table": "bpm", "cursor": "0", "batches": "1000",
                         "page": "4096"}),
    ("/v2/tail", {"table": "bpm", "cursor": "9" * 40}),
    ("/v2/query/aggregate", {"table": "bpm", "field": "input_power_w",
                             "t0": "0", "t1": "1e308", "window": "1e-300"}),
])
def test_edge_requests(clients, path, query):
    for client in clients:
        _check(client, path, query, "root")
