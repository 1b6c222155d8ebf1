"""The fleet-aware aggregate endpoint: federated scatter-gather over
``/v2/query/aggregate`` when the service fronts a fleet."""

import pytest

from repro.chaos import FaultPlan, FaultRule
from repro.fleet import build_fleet
from repro.service import ServiceClient, service_for_fleet


@pytest.fixture(scope="module")
def fleet_rig():
    fleet = build_fleet(n_sites=3, racks=1, seed=0x5E55, poll_interval_s=60.0)
    fleet.advance_to(130.0)
    app = service_for_fleet(fleet)
    return fleet, app


@pytest.fixture()
def client(fleet_rig):
    return ServiceClient(fleet_rig[1])


def _params(**extra):
    params = {"table": "bpm", "field": "input_power_w",
              "t0": 0.0, "t1": 130.0, "window": 60.0}
    params.update(extra)
    return params


def test_aggregate_fans_out_across_sites(fleet_rig, client):
    fleet, _ = fleet_rig
    payload = client.get("/v2/query/aggregate", _params()).json()
    plan = payload["plan"]
    assert plan["federated"] is True
    assert plan["rollup"] is False
    assert plan["fan_out"] == 3
    assert plan["sites"] == sorted(fleet.sites)
    locations = {row["location"] for row in payload["rows"]}
    assert all("/" in loc for loc in locations)
    assert {loc.partition("/")[0] for loc in locations} == set(fleet.sites)


def test_rollup_merges_partials_into_fleet_rows(client):
    payload = client.get("/v2/query/aggregate", _params(rollup=1)).json()
    assert payload["plan"]["rollup"] is True
    assert payload["count"] == len(payload["rows"]) > 0
    assert all(row["location"] == "fleet" for row in payload["rows"])
    # The rollup folds the flat partials: same totals, fewer rows.
    flat = client.get("/v2/query/aggregate", _params()).json()
    assert sum(r["count"] for r in payload["rows"]) == \
        sum(r["count"] for r in flat["rows"])
    assert len(payload["rows"]) < len(flat["rows"])


def test_prefix_pins_a_single_site(client):
    payload = client.get(
        "/v2/query/aggregate", _params(prefix="site01/R00")).json()
    assert payload["plan"]["fan_out"] == 1
    assert payload["plan"]["sites"] == ["site01"]
    assert all(row["location"].startswith("site01/")
               for row in payload["rows"])


def test_unknown_site_is_a_structured_400(client):
    response = client.get("/v2/query/aggregate", _params(prefix="nosite/R"))
    assert response.status == 400
    error = response.json()["error"]
    assert error["title"] == "Bad Request"
    assert "no site 'nosite'" in error["detail"]


def test_other_query_kinds_stay_site_local(client):
    """Only the aggregate kind federates; range/latest still answer
    from the primary site's store (un-prefixed locations)."""
    payload = client.get("/v2/query/latest", {"table": "bpm"}).json()
    assert "federated" not in payload["plan"]
    assert all("/" not in row["location"] for row in payload["rows"])


def test_non_fleet_service_is_unchanged():
    from repro.service import build_rig
    _, app, _ = build_rig(racks=1, shards=1, sweeps=1, seed=3)
    payload = ServiceClient(app).get(
        "/v2/query/aggregate", _params(t1=65.0)).json()
    assert "federated" not in payload["plan"]
    assert "shards" in payload["plan"]


@pytest.mark.parametrize("bad", [
    {"window": "nan"}, {"t1": "nan"}, {"t1": "inf"}, {"t0": "-inf"},
])
def test_non_finite_rollup_bounds_400(client, bad):
    response = client.get("/v2/query/aggregate", _params(rollup=1, **bad))
    assert response.status == 400
    assert "finite" in response.json()["error"]["detail"]


def test_a_sites_dark_shards_do_not_depend_on_other_sites(fleet_rig):
    """Each site's shards cross as their own devices, so whether a
    site's aggregate finds a dark shard does not depend on which other
    sites were probed before it."""
    fleet, _ = fleet_rig

    def site01_statuses(sites):
        app = service_for_fleet(fleet)
        app.fault_plan = FaultPlan(seed=7, rules=[
            FaultRule(mechanism="store", rate=0.8)])
        client = ServiceClient(app)
        out = []
        for _ in range(12):
            for site in sites:
                status = client.get("/v2/query/aggregate",
                                    _params(prefix=f"{site}/")).status
                if site == "site01":
                    out.append(status)
        return out

    alone = site01_statuses(["site01"])
    assert {200, 503} <= set(alone)
    assert site01_statuses(["site00", "site01"]) == alone
