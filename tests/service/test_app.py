"""End-to-end WSGI behavior: probes, planned queries, errors, the
credentialed mechanism read path (the structured 403)."""

import math

import pytest

import repro.obs as obs
from repro.chaos import FaultPlan, FaultRule
from repro.obs.instruments import SERVICE_DENIALS, SERVICE_REQUESTS
from repro.service import ServiceApp, ServiceClient
from repro.service.routes import MAX_STREAM_PAGE
from repro.testbeds import fleet_node


class TestProbes:
    def test_index_names_the_surface(self, client):
        response = client.get("/")
        assert response.status == 200
        payload = response.json()
        from repro.api import API_VERSION
        assert payload["api_version"] == API_VERSION
        assert payload["service"] == "repro.service"
        assert "/v2/query/<kind>" in payload["endpoints"]
        assert payload["tenant"] == "hpcuser"
        assert set(payload["tables"]) == {
            "bpm", "coolant", "temperature", "fan"}

    def test_ready(self, client):
        response = client.get("/ready")
        assert response.status == 200
        payload = response.json()
        assert payload["ready"] is True
        assert all(payload["checks"].values())

    def test_health_reports_the_store(self, client):
        payload = client.get("/health").json()
        assert payload["status"] == "ok"
        assert payload["store"]["shards"] == 4
        assert payload["store"]["records"] > 0
        assert payload["store"]["dark_shards"] == []
        assert payload["mechanisms"]["registered"] >= 8
        assert payload["mechanisms"]["attached"] == []

    def test_metrics_is_a_prometheus_scrape(self, client):
        assert client.get("/ready").status == 200
        response = client.get("/metrics")
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.body.decode()
        assert "repro_service_requests_total" in text
        assert 'endpoint="/ready"' in text

    def test_request_metrics_use_route_labels(self, client):
        client.get("/ready")
        client.get("/v2/query/latest", {"table": "bpm"})
        assert SERVICE_REQUESTS.value("/ready", "200") == 1
        assert SERVICE_REQUESTS.value("/v2/query/<kind>", "200") == 1


class TestQueries:
    def test_tables(self, client):
        assert set(client.get("/v2/tables").json()["tables"]) == {
            "bpm", "coolant", "temperature", "fan"}

    def test_range_carries_its_plan(self, rig, client):
        machine, _, _ = rig
        payload = client.get("/v2/query/range", {
            "table": "bpm", "t0": 0.0, "t1": machine.clock.now,
            "prefix": "R00"}).json()
        assert payload["kind"] == "range"
        assert payload["plan"]["uses_cache"] is False
        assert payload["plan"]["fan_out"] == len(payload["plan"]["shards"])
        assert payload["count"] == len(payload["rows"]) > 0
        for row in payload["rows"]:
            assert row["location"].startswith("R00")
            assert 0.0 <= row["t"] <= machine.clock.now

    def test_latest_one_row_per_location(self, client):
        payload = client.get("/v2/query/latest", {"table": "bpm"}).json()
        locations = [row["location"] for row in payload["rows"]]
        assert locations == sorted(locations)
        assert len(set(locations)) == payload["count"] == 4 * 32

    def test_prefix(self, client):
        payload = client.get("/v2/query/prefix", {
            "table": "fan", "prefix": "R01"}).json()
        assert payload["count"] > 0
        assert all(r["location"].startswith("R01") for r in payload["rows"])

    def test_aggregate_uses_the_cache(self, rig, client):
        machine, _, _ = rig
        payload = client.get("/v2/query/aggregate", {
            "table": "bpm", "field": "input_power_w", "t0": 0.0,
            "t1": machine.clock.now, "window": 240.0}).json()
        assert payload["plan"]["uses_cache"] is True
        assert payload["count"] > 0
        for row in payload["rows"]:
            assert row["min"] <= row["mean"] <= row["max"]
            assert row["count"] > 0

    def test_tail_pages_cover_the_table(self, rig, client):
        machine, _, _ = rig
        total = client.get("/v2/query/range", {
            "table": "bpm", "t0": 0.0,
            "t1": machine.clock.now}).json()["count"]
        seen, cursor = 0, 0
        while True:
            page = client.get("/v2/tail", {
                "table": "bpm", "cursor": cursor, "limit": 100}).json()
            if page["count"] == 0:
                break
            seen += page["count"]
            assert page["cursor"] > cursor
            cursor = page["cursor"]
        assert seen == total


class TestErrors:
    def test_unknown_path_404(self, client):
        response = client.get("/v2/nope")
        assert response.status == 404
        assert response.json()["error"]["status"] == 404

    def test_unknown_query_kind_404(self, client):
        response = client.get("/v2/query/join", {"table": "bpm"})
        assert response.status == 404
        assert "join" in response.json()["error"]["detail"]

    def test_missing_param_400(self, client):
        response = client.get("/v2/query/range")
        assert response.status == 400
        assert "table" in response.json()["error"]["detail"]

    def test_bad_float_400(self, client):
        response = client.get("/v2/query/range", {
            "table": "bpm", "t0": "soon", "t1": 1.0})
        assert response.status == 400

    @pytest.mark.parametrize("bad", [
        {"window": "nan"}, {"t1": "nan"}, {"t0": "nan"}, {"t1": "inf"},
        {"t0": "-inf"}, {"window": "inf"},
    ])
    def test_non_finite_aggregate_bounds_400(self, client, bad):
        params = {"table": "bpm", "field": "input_power_w", "t0": 0.0,
                  "t1": 120.0, "window": 60.0}
        params.update(bad)
        response = client.get("/v2/query/aggregate", params)
        assert response.status == 400
        assert "finite" in response.json()["error"]["detail"]

    def test_aggregate_cost_follows_the_data_not_the_span(self, rig):
        store = rig[0].envdb.store
        bounded = store.aggregate("bpm", "input_power_w", 0.0, 1e7, 60.0)
        assert len(bounded) > 0
        assert store.aggregate("bpm", "input_power_w", -1e12, 1e12,
                               60.0) == bounded

    def test_prefix_requires_a_prefix(self, client):
        assert client.get("/v2/query/prefix",
                          {"table": "bpm"}).status == 400

    def test_unknown_table_is_a_config_error_400(self, client):
        response = client.get("/v2/query/latest", {"table": "voltage"})
        assert response.status == 400
        assert response.json()["error"]["title"] == "Bad Request"

    def test_negative_cursor_400(self, client):
        assert client.get("/v2/tail", {
            "table": "bpm", "cursor": -1}).status == 400

    @pytest.mark.parametrize("limit", [0, MAX_STREAM_PAGE + 1, 100_000_000])
    def test_tail_limit_out_of_range_400(self, client, limit):
        response = client.get("/v2/tail", {"table": "bpm", "limit": limit})
        assert response.status == 400
        assert "'limit'" in response.json()["error"]["detail"]

    @pytest.mark.parametrize("name, value", [
        ("page", 0), ("page", -1), ("page", MAX_STREAM_PAGE + 1),
        ("batches", 0), ("batches", -1), ("batches", 1_000_000_000),
        ("cursor", "abc"), ("cursor", -1), ("page", "many"),
    ])
    def test_stream_tail_rejects_bad_parameters_before_opening(
            self, client, name, value):
        params = {"table": "bpm", "cursor": 0, "batches": 1, "page": 16}
        params[name] = value
        response = client.get("/v2/stream/tail", params)
        assert response.status == 400
        assert response.headers["Content-Type"] == "application/json"
        assert repr(name) in response.json()["error"]["detail"]

    @pytest.mark.parametrize("bad", [
        {"t0": "nan", "t1": 1.0}, {"t0": 0.0, "t1": "nan"},
        {"t0": "-inf", "t1": "inf"}, {"t0": 0.0, "t1": "inf"},
    ])
    def test_non_finite_range_bounds_400(self, client, bad):
        response = client.get("/v2/query/range", {"table": "bpm", **bad})
        assert response.status == 400
        detail = response.json()["error"]["detail"]
        assert "finite" in detail
        assert any(repr(name) in detail for name in bad)

    def test_post_is_405(self, rig):
        _, app, _ = rig
        captured = {}

        def start_response(status_line, headers):
            captured["status"] = int(status_line.split(" ", 1)[0])

        body = b"".join(app({
            "REQUEST_METHOD": "POST", "PATH_INFO": "/ready",
            "QUERY_STRING": ""}, start_response))
        assert captured["status"] == 405
        assert b"GET only" in body

    def test_unknown_tenant_401(self, client):
        response = client.get("/ready", tenant="intruder")
        assert response.status == 401
        assert response.json()["error"]["origin"] == "repro.service.auth"


@pytest.fixture(scope="module")
def mech_rig(rig):
    """The shared store fronted with live fleet backends whose msr gate
    was never opened (no chmod ritual ran)."""
    _, backends = fleet_node(seed=0x403, hostname="svc-host",
                             grant_msr_access=False)
    app = ServiceApp(rig[0].envdb.store, backends=backends)
    return app, ServiceClient(app)


class TestMechEndpoints:
    def test_mech_list_carries_permissions(self, mech_rig):
        _, client = mech_rig
        payload = client.get("/v2/mech").json()
        by_name = {row["mechanism"]: row for row in payload["mechanisms"]}
        assert by_name["rapl_msr"]["permission"] == "root"
        assert by_name["rapl_msr"]["privileged"] is True
        assert by_name["rapl_msr"]["attached"] is True
        assert by_name["nvml"]["privileged"] is False

    def test_root_reads_the_gated_mechanism(self, mech_rig):
        _, client = mech_rig
        payload = client.get("/v2/mech/rapl_msr/read",
                             {"t": 10.0}, tenant="root").json()
        assert payload["tenant"] == "root"
        assert payload["values"]

    def test_unprivileged_tenant_gets_the_structured_403(self, mech_rig):
        _, client = mech_rig
        response = client.get("/v2/mech/rapl_msr/read", {"t": 10.0})
        assert response.status == 403
        error = response.json()["error"]
        assert error["origin"] == "repro.host.permissions"
        assert "/dev/cpu/0/msr" in error["detail"]
        assert "uid 1000" in error["detail"]
        assert SERVICE_DENIALS.value("hpcuser") == 1
        assert SERVICE_REQUESTS.value("/v2/mech/<name>/read", "403") == 1

    def test_chmod_ritual_opens_the_gate_live(self, mech_rig):
        app, client = mech_rig
        node, backends = fleet_node(seed=0x404, hostname="chmod-host",
                                    grant_msr_access=False)
        live = ServiceClient(ServiceApp(app.store, backends=backends))
        assert live.get("/v2/mech/rapl_msr/read", {"t": 5.0}).status == 403
        node.kernel.module("msr").grant_readonly_access()
        assert live.get("/v2/mech/rapl_msr/read", {"t": 5.0}).status == 200

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_read_time_400(self, mech_rig, t):
        _, client = mech_rig
        response = client.get("/v2/mech/nvml/read", {"t": t})
        assert response.status == 400
        assert "'t'" in response.json()["error"]["detail"]

    def test_reads_cross_under_the_service_plan_only(self, mech_rig):
        app, client = mech_rig
        dark_app = ServiceApp(app.store, backends=app.backends)
        dark_app.fault_plan = FaultPlan(rules=(FaultRule("nvml", rate=1.0),))
        faulted = ServiceClient(dark_app).get("/v2/mech/nvml/read", {"t": 10.0}).json()
        assert all(math.isnan(v) for v in faulted["values"].values())
        clean = client.get("/v2/mech/nvml/read", {"t": 10.0}).json()
        assert not any(math.isnan(v) for v in clean["values"].values())

    def test_ungated_mechanism_serves_everyone(self, mech_rig):
        _, client = mech_rig
        response = client.get("/v2/mech/nvml/read", {"t": 10.0})
        assert response.status == 200
        assert response.json()["tenant"] == "hpcuser"

    def test_unattached_mechanism_404(self, rig):
        _, app, _ = rig
        client = ServiceClient(app)
        response = client.get("/v2/mech/rapl_msr/read", {"t": 1.0})
        assert response.status == 404
        assert "not attached" in response.json()["error"]["detail"]

    def test_unknown_mechanism_404(self, mech_rig):
        _, client = mech_rig
        response = client.get("/v2/mech/hwmon9000/read", {"t": 1.0})
        assert response.status == 404
        assert "no mechanism" in response.json()["error"]["detail"]


class TestMetricsDump:
    def test_denials_surface_in_the_scrape(self, mech_rig):
        _, client = mech_rig
        client.get("/v2/mech/rapl_msr/read", {"t": 10.0})
        text = obs.dump()
        assert "repro_service_denials_total" in text
        assert 'tenant="hpcuser"' in text
