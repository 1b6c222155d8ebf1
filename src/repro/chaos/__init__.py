"""``repro.chaos`` — deterministic fault injection at the channel seam.

The paper's vendor mechanisms fail in vendor-specific ways: IPMB
exchanges are checksum-guarded bus round trips that drop, msr preads
cross a chardev that EINTRs, SCIF is a network transport that times
out, NVML throws transient ``NVML_ERROR_UNKNOWN``, sysfs files vanish
on hot-unplug.  This package models all of that **once**, at the
:class:`~repro.mech.channel.AccessChannel` crossing every mechanism
already goes through:

* :class:`~repro.chaos.faults.FaultPlan` / :class:`~repro.chaos.faults.
  FaultRule` — seeded, per-mechanism fault distributions with optional
  time windows; same seed, same fault timeline, bit for bit;
* :class:`~repro.chaos.retry.RetryPolicy` — bounded retries,
  exponential backoff with deterministic jitter, per-mechanism timeout
  budgets;
* :class:`~repro.chaos.retry.CircuitBreaker` — consecutive failures
  open the breaker and the device reads sensor-dark
  (:data:`~repro.chaos.injector.DARK_READING`) until a half-open probe
  succeeds.

The named scenarios behind ``repro chaos run`` (``bmc_dark``,
``daemon_wedge``, ``bus_noise``, ...) are the ``kind = "chaos"``
scenario packs: :func:`repro.packs.chaos_packs` reads them and
:func:`repro.packs.execute_scenario` runs one.  This package sits below
the mechanism layer, whose read path imports it; it imports nothing
from the mechanism or pack layers.

A plan is an input of the run that owns it — ``MoneqConfig(fault_plan=
...)``, ``ServiceApp.fault_plan`` or ``read_block(times, plan=...)`` —
never process state.  A read without a plan pays one ``is None`` check
and its output is byte-identical to a build without this package.
"""

from __future__ import annotations

from repro.chaos.faults import (
    DEFAULT_FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultRule,
    default_kind,
)
from repro.chaos.injector import BREAKER_OPEN_KIND, DARK_READING, ChannelInjector
from repro.chaos.retry import (
    DEFAULT_POLICIES,
    CircuitBreaker,
    RetryPolicy,
    default_policy,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "FaultEvent",
    "DEFAULT_FAULT_KINDS",
    "default_kind",
    "RetryPolicy",
    "CircuitBreaker",
    "DEFAULT_POLICIES",
    "default_policy",
    "ChannelInjector",
    "DARK_READING",
    "BREAKER_OPEN_KIND",
]
