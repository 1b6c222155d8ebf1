"""Fleet topology: named sites over a federated store.

A :class:`FleetSite` is one cluster — a :class:`~repro.bgq.machine
.BgqMachine` with its own virtual clock, poller and sharded
environmental store.  A :class:`Fleet` federates the sites' stores
behind one :class:`~repro.store.FederatedStore` (queries route by the
``site/location`` prefix convention) and owns the operational loop:
advance every site's clock, account sweeps/records per site, and
reshard any site whose sweep saturates its ingest ceiling.

Sites are deterministic: :func:`build_fleet` derives every site's RNG
from one fleet seed, so equal seeds build byte-identical fleets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgq.envdb import EnvironmentalDatabase
from repro.bgq.machine import MIRA_RACKS, BgqMachine
from repro.errors import ConfigError
from repro.obs.instruments import FLEET_RECORDS, FLEET_SWEEPS
from repro.sim.rng import RngRegistry, derive_seed
from repro.store import FederatedStore, ShardedStore

DEFAULT_FLEET_SEED = 0xF1EE7


@dataclass
class FleetSite:
    """One named cluster in the fleet."""

    name: str
    machine: BgqMachine
    #: Per-site accounting watermarks (what the fleet metrics counted).
    _polls_seen: int = field(default=0, repr=False)
    _records_seen: int = field(default=0, repr=False)

    @property
    def envdb(self) -> EnvironmentalDatabase:
        return self.machine.envdb

    @property
    def store(self) -> ShardedStore:
        return self.machine.envdb.store


class Fleet:
    """N sites behind one federation, advanced in lockstep."""

    def __init__(self, sites: list[FleetSite]):
        if not sites:
            raise ConfigError("fleet needs at least one site")
        names = [site.name for site in sites]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate site names: {sorted(names)}")
        self.sites = {site.name: site for site in sites}
        self.federation = FederatedStore(
            {site.name: site.store for site in sites})

    def site(self, name: str) -> FleetSite:
        try:
            return self.sites[name]
        except KeyError:
            raise ConfigError(
                f"no site {name!r}; have {sorted(self.sites)}") from None

    # -- operation -------------------------------------------------------------

    def advance_to(self, t: float) -> None:
        """Run every site's event queue (pollers included) to virtual
        time ``t``, accounting completed sweeps and ingested records to
        the per-site fleet metrics."""
        for name, site in self.sites.items():
            site.machine.advance_to(t)
            polls = site.envdb.polls_completed
            records = site.store.records_ingested
            if polls > site._polls_seen:
                FLEET_SWEEPS.labels(name).inc(polls - site._polls_seen)
                site._polls_seen = polls
            if records > site._records_seen:
                FLEET_RECORDS.labels(name).inc(records - site._records_seen)
                site._records_seen = records

    def rebalance_saturated(self) -> dict[str, int]:
        """Reshard every site whose sweep would exceed
        :data:`~repro.store.federation.RESHARD_HEADROOM` of its hottest
        shard's ingest budget; returns site → new shard count for the
        sites that actually resharded."""
        resharded: dict[str, int] = {}
        for name, site in self.sites.items():
            n = self.federation.rebalance(
                name, site.envdb.sweep_locations(),
                site.envdb.poll_interval_s)
            if n:
                resharded[name] = n
        return resharded

    # -- accounting ------------------------------------------------------------

    @property
    def site_names(self) -> list[str]:
        return sorted(self.sites)

    @property
    def node_count(self) -> int:
        return sum(site.machine.node_count for site in self.sites.values())

    @property
    def records_ingested(self) -> int:
        return self.federation.records_ingested

    @property
    def dropped_records(self) -> int:
        return self.federation.dropped_records

    @property
    def sweeps_completed(self) -> int:
        return sum(site.envdb.polls_completed for site in self.sites.values())

    @property
    def shards_by_site(self) -> dict[str, int]:
        return {name: site.store.n_shards
                for name, site in sorted(self.sites.items())}


def build_fleet(n_sites: int = 10, racks: int = MIRA_RACKS,
                seed: int = DEFAULT_FLEET_SEED,
                poll_interval_s: float = 60.0,
                shards_per_site: int = 1) -> Fleet:
    """A fleet of ``n_sites`` identical-topology, independently-seeded
    Mira-class clusters — the ISSUE's 10×-Mira configuration by
    default, small configurations for tests."""
    if n_sites < 1:
        raise ConfigError(f"need at least one site, got {n_sites}")
    sites = []
    for i in range(n_sites):
        name = f"site{i:02d}"
        machine = BgqMachine(
            racks=racks,
            rng=RngRegistry(derive_seed(seed, f"fleet.{name}")),
            poll_interval_s=poll_interval_s,
            envdb_shards=shards_per_site,
        )
        sites.append(FleetSite(name=name, machine=machine))
    return Fleet(sites)
