"""The load generator at reduced scale (the smoke-bench profile)."""

import dataclasses
import gc
import json
import weakref

import pytest

from repro import perfbench
from repro.bgq.machine import BgqMachine
from repro.service import ServiceClient, bench_service
from repro.service.loadgen import _aggregate_cache_ratio


class TestBenchService:
    def test_reduced_profile(self):
        result = bench_service(racks=2, shards=2, requests=20,
                               sweeps=1, seed=7)
        assert result["requests"] == 20
        assert result["sustained_qps"] > 0
        assert result["cache_cold_warm"] > 0
        assert result["rows_returned"] > 0
        assert result["streamed_rows"] > 0
        assert result["store_records"] > 0
        assert result["racks"] == 2 and result["shards"] == 2
        assert result["wall_s"] >= result["query_wall_s"] > 0

    def test_write_bench(self, tmp_path, monkeypatch):
        """The service row records through the registry's one
        trajectory writer (here at a 2-rack size, floor off)."""
        row = perfbench.BENCHES["service"]
        small = {"racks": 2, "shards": 2, "requests": 10, "sweeps": 1}
        monkeypatch.setitem(perfbench.BENCHES, "service", dataclasses.replace(
            row, full=small, smoke=small,
            floors={"full": 0.0, "smoke": 0.0}))
        path = tmp_path / "BENCH_trajectory.json"
        failures, entries = perfbench.record(["service"], "full", str(path))
        assert failures == []
        committed = json.loads(path.read_text())
        assert set(committed) == {"full"}
        assert committed["full"] == entries
        service = committed["full"]["service"]
        assert service["requests"] == 10 and service["spread"] == 0.0
        assert service["sustained_qps"] > 0


def test_the_service_row_frees_its_rig_without_the_collector(monkeypatch):
    """The row stops its rig's poller, so nothing is left in a cycle
    (the pending sweep held the envdb, which holds the queue)."""
    machines = []
    init = BgqMachine.__init__

    def tracked(self, *args, **kwargs):
        machines.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(BgqMachine, "__init__", tracked)
    gc.collect()
    gc.disable()
    try:
        perfbench.BENCHES["service"].measure("smoke")
        assert len(machines) == 1
        assert machines[0]() is None
    finally:
        gc.enable()


class _StubStore:
    def latest(self, table):
        return {"R00-M0-N00": None}


def _stub_app(cold, warm):
    """A WSGI app answering each query's first request with ``cold``
    and every repeat with ``warm`` — a fast error on the warm path
    would inflate the cache ratio if it went unnoticed."""
    seen = set()

    def app(environ, start_response):
        query = environ["QUERY_STRING"]
        code = warm if query in seen else cold
        seen.add(query)
        start_response(f"{code} X", [("Content-Type", "application/json")])
        return [b'{"rows": []}']

    return app


def test_cache_ratio_probe_passes_a_healthy_app():
    client = ServiceClient(_stub_app(200, 200))
    assert _aggregate_cache_ratio(client, _StubStore(), t1=60.0) > 0


@pytest.mark.parametrize("status", [404, 429, 500])
def test_cache_ratio_probe_raises_on_a_failing_warm_hit(status):
    client = ServiceClient(_stub_app(200, status))
    with pytest.raises(RuntimeError, match=f"got {status} on "
                                           f"/v2/query/aggregate"):
        _aggregate_cache_ratio(client, _StubStore(), t1=60.0)


def test_cache_ratio_probe_raises_on_a_failing_cold_query():
    client = ServiceClient(_stub_app(503, 200))
    with pytest.raises(RuntimeError, match="got 503"):
        _aggregate_cache_ratio(client, _StubStore(), t1=60.0)
