"""The chunked NDJSON tail, and how it degrades under chaos.

These tests build their own small rigs: the streaming pump advances
the simulated machine, so they must not share the module rig the
query tests treat as immutable.
"""

import pytest

from repro.chaos import FaultPlan, FaultRule
from repro.obs.instruments import SERVICE_STREAM_GAPS, SERVICE_STREAM_ROWS
from repro.service import (
    ServiceClient,
    build_rig,
    dark_shards,
    service_for_machine,
)
from repro.service.loadgen import SWEEP_INTERVAL_S


@pytest.fixture()
def srig():
    """A fresh 2-rack, 2-shard rig, one sweep in (mutable per test)."""
    return build_rig(racks=2, shards=2, sweeps=1, seed=33)


def markers(lines):
    return [obj for obj in lines if "marker" in obj]


def rows(lines):
    return [obj for obj in lines if "marker" not in obj]


class TestTailStream:
    def test_open_rows_end(self, srig):
        machine, _, client = srig
        response = client.get("/v2/stream/tail", {
            "table": "bpm", "cursor": 0, "batches": 2, "page": 4096})
        assert response.status == 200
        assert response.headers["Content-Type"] == "application/x-ndjson"
        lines = list(response.lines())
        assert lines[0] == {"marker": "open", "table": "bpm",
                            "cursor": 0, "prefix": ""}
        assert lines[-1]["marker"] == "end"
        assert lines[-1]["polls"] == 2
        got = rows(lines)
        assert got
        assert all(set(r) == {"t", "location", "mechanism", "values"}
                   for r in got)
        assert SERVICE_STREAM_ROWS.value() == len(got)

    def test_cursor_now_skips_history(self, srig):
        machine, app, client = srig
        head = machine.envdb.store.ingest_cursor
        # Strip the pump: nothing new lands, so a head-anchored stream
        # sees zero rows while history stays untouched.
        app.pump = None
        lines = list(client.get("/v2/stream/tail", {
            "table": "bpm", "cursor": "now", "batches": 2}).lines())
        assert lines[0]["cursor"] == head
        assert rows(lines) == []
        assert lines[-1] == {"marker": "end", "cursor": head, "polls": 2}

    def test_pump_delivers_fresh_sweeps_mid_stream(self, srig):
        machine, _, client = srig
        head = machine.envdb.store.ingest_cursor
        # The rig's pump advances one sweep interval per poll, so a
        # stream opened at the head observes readings that did not
        # exist when it opened.
        lines = list(client.get("/v2/stream/tail", {
            "table": "bpm", "cursor": "now", "batches": 3,
            "page": 4096}).lines())
        fresh = rows(lines)
        assert fresh
        assert machine.envdb.store.ingest_cursor > head
        assert lines[-1]["cursor"] > head

    def test_prefix_filters_but_cursor_advances(self, srig):
        _, app, client = srig
        app.pump = None
        lines = list(client.get("/v2/stream/tail", {
            "table": "bpm", "cursor": 0, "batches": 1, "page": 4096,
            "prefix": "R01"}).lines())
        got = rows(lines)
        assert got
        assert all(r["location"].startswith("R01") for r in got)
        assert lines[-1]["cursor"] > len(got)

    def test_unknown_table_400(self, srig):
        _, _, client = srig
        assert client.get("/v2/stream/tail",
                          {"table": "voltage"}).status == 400


class TestChaosDegradation:
    """A shard goes dark mid-tail under the service's fault plan — the
    stream emits a gap marker and keeps going, aggregates refuse with
    503, and everything recovers when the service drops the plan."""

    def plan(self):
        return FaultPlan(seed=3, rules=[
            FaultRule(mechanism="store", rate=1.0)])

    def test_no_plan_means_no_dark_shards(self, srig):
        machine, _, _ = srig
        assert dark_shards(machine.envdb.store, machine.clock.now,
                           None) == set()

    def test_shard_dark_mid_tail_degrades_the_stream(self, srig):
        machine, app, client = srig
        app.pump = None
        response = client.get("/v2/stream/tail", {
            "table": "bpm", "cursor": 0, "batches": 3, "page": 4096})
        lines = response.lines()
        # Consume the open marker and the first (healthy) poll's rows
        # lazily, then take every shard dark before the next poll.
        first = next(lines)
        assert first["marker"] == "open"
        collected = [first]
        for obj in lines:
            collected.append(obj)
            if app.fault_plan is None and "marker" not in obj:
                app.fault_plan = self.plan()
        kinds = [m["marker"] for m in markers(collected)]
        assert kinds[0] == "open"
        assert "gap" in kinds, "dark shards must surface as a gap marker"
        assert kinds[-1] == "end", "the stream must terminate, not hang"
        gap = next(m for m in markers(collected) if m["marker"] == "gap")
        assert gap["shards"] == [0, 1]
        assert "dark" in gap["detail"]
        assert SERVICE_STREAM_GAPS.value() == 2

    def test_gap_marker_emitted_once_while_dark(self, srig):
        _, app, client = srig
        app.pump = None
        app.fault_plan = self.plan()
        lines = list(client.get("/v2/stream/tail", {
            "table": "bpm", "cursor": "now", "batches": 4}).lines())
        kinds = [m["marker"] for m in markers(lines)]
        assert kinds.count("gap") == 1, \
            "a persistently dark shard is announced once, not per poll"

    def test_aggregate_refuses_503_then_recovers(self, srig):
        machine, app, client = srig
        params = {"table": "bpm", "field": "input_power_w", "t0": 0.0,
                  "t1": machine.clock.now, "window": SWEEP_INTERVAL_S}
        assert client.get("/v2/query/aggregate", params).status == 200
        app.fault_plan = self.plan()
        response = client.get("/v2/query/aggregate", params)
        assert response.status == 503
        error = response.json()["error"]
        assert error["origin"] == "repro.chaos"
        assert "dark" in error["detail"]
        # Raw range queries keep serving: dark shards degrade
        # aggregates, they do not take the service down.
        assert client.get("/v2/query/range", {
            "table": "bpm", "t0": 0.0,
            "t1": machine.clock.now}).status == 200
        app.fault_plan = None
        assert client.get("/v2/query/aggregate", params).status == 200

    def test_health_reports_degraded_under_the_plan(self, srig):
        _, app, client = srig
        app.fault_plan = self.plan()
        payload = client.get("/health").json()
        assert payload["status"] == "degraded"
        assert payload["store"]["dark_shards"] == [0, 1]
        app.fault_plan = None
        assert client.get("/health").json()["status"] == "ok"

    def test_only_the_service_holding_the_plan_degrades(self, srig):
        """Two services over one store: the store-dark plan of one never
        reaches the other's health, aggregates or streams."""
        machine, dark_app, dark_client = srig
        clean_client = ServiceClient(service_for_machine(machine))
        dark_app.fault_plan = self.plan()
        dark_app.pump = None
        params = {"table": "bpm", "field": "input_power_w", "t0": 0.0,
                  "t1": machine.clock.now, "window": SWEEP_INTERVAL_S}
        stream = {"table": "bpm", "cursor": "now", "batches": 1}
        assert dark_client.get("/health").json()["status"] == "degraded"
        assert dark_client.get("/v2/query/aggregate", params).status == 503
        assert "gap" in [m["marker"] for m in markers(
            dark_client.get("/v2/stream/tail", stream).lines())]
        assert clean_client.get("/health").json()["status"] == "ok"
        assert clean_client.get("/v2/query/aggregate", params).status == 200
        assert "gap" not in [m["marker"] for m in markers(
            clean_client.get("/v2/stream/tail", stream).lines())]
