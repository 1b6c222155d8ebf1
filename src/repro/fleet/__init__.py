"""``repro.fleet`` — federated multi-cluster fleet sweeps.

The paper profiles one machine at a time; a production deployment of
its mechanisms monitors *fleets* — N sites, each a Mira-class cluster
with its own environmental database and ingest ceiling.  This package
scales the reproduction out:

* :mod:`repro.fleet.sites` — :class:`FleetSite` (one named site's
  :class:`~repro.bgq.machine.BgqMachine`) and :class:`Fleet`, which
  federates every site's sharded store behind one
  :class:`~repro.store.FederatedStore` and reshards saturated sites
  before a sweep;
* :mod:`repro.fleet.sweep` — :func:`fleet_sweep` (the timed
  fleet-wide sweep with cross-site rollup aggregation) and
  :func:`cache_ablation`, the channel cache's crossings-saved
  measurement.

``python -m repro bench fleet`` times both (the ``fleet`` row of
:data:`repro.perfbench.BENCHES`).
"""

from __future__ import annotations

from repro.fleet.sites import DEFAULT_FLEET_SEED, Fleet, FleetSite, build_fleet
from repro.fleet.sweep import FleetSweepReport, cache_ablation, fleet_sweep

__all__ = [
    "DEFAULT_FLEET_SEED",
    "Fleet",
    "FleetSite",
    "FleetSweepReport",
    "build_fleet",
    "cache_ablation",
    "fleet_sweep",
]
