"""Seeded fault plans: *what* goes wrong on a channel crossing, and when.

A :class:`FaultPlan` is the deterministic heart of ``repro.chaos``: a
root seed plus an ordered tuple of :class:`FaultRule` entries, each
naming a mechanism, a fault kind (defaulted to the mechanism's
vendor-specific failure mode — dropped IPMB exchanges, EINTR on msr
preads, SCIF timeouts, transient ``NVML_ERROR_UNKNOWN``, sysfs ENOENT
on hot-unplug), a per-exchange probability, and an optional virtual-time
window.

Every decision is a pure function of ``(plan seed, mechanism, device
label, kind, exchange index)`` via the counter-based hashes in
:mod:`repro.sim.hashrand`, so the same seed replays the same fault
timeline bit for bit, block sampling decides identically to scalar
ticking (indices, not generator state), and a zero-rate plan touches
nothing.  All *mutable* chaos state — exchange counters, retry draws,
jitter streams, circuit breakers, the fault timeline — lives on the
plan, never on the mechanism, so mechanisms stay reusable across plans
and a fresh plan always starts from a clean slate.

A plan has one owner: the run that hands it to its reads.  A MonEQ
session carries it in ``MoneqConfig(fault_plan=...)``, a query service
in ``ServiceApp.fault_plan``, and a direct caller passes
``read_block(times, plan=plan)``.  Nothing is installed process-wide,
so two runs in one process can suffer different plans, and a read made
without a plan crosses its channel untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.sim.rng import RngRegistry, derive_seed

#: The vendor-specific failure mode each mechanism's channel exhibits —
#: what a rule injects when it names no explicit kind, and what the
#: ``kind`` label of ``repro_collector_errors_total`` carries.
DEFAULT_FAULT_KINDS: dict[str, str] = {
    "emon": "emon_glitch",         # dropped personality-call response
    "rapl_msr": "eintr",           # interrupted pread on the msr chardev
    "rapl_powercap": "sysfs_enoent",  # energy_uj vanished (hot-unplug)
    "rapl_perf": "eintr",          # interrupted perf_event read syscall
    "nvml": "nvml_unknown",        # transient NVML_ERROR_UNKNOWN
    "sysmgmt": "scif_timeout",     # SCIF round trip timed out
    "micras": "daemon_wedged",     # pseudo-file read hung on the daemon
    "ipmb": "ipmb_drop",           # dropped/checksum-failed bus exchange
    "micsmc": "scif_timeout",      # control-panel poll timed out on SCIF
    "store": "shard_dark",         # a store shard stops answering queries
}


def default_kind(mechanism: str) -> str:
    """The fault kind a rule for ``mechanism`` defaults to."""
    return DEFAULT_FAULT_KINDS.get(mechanism, "io_error")


@dataclass(frozen=True)
class FaultRule:
    """One fault distribution: ``rate`` per channel exchange, on one
    mechanism, optionally only inside [t_start, t_end).

    ``rate`` doubles as the fault's *persistence*: a retry re-draws the
    fault at the same probability, so transient noise (low rate) almost
    always recovers on the first retry while a dead device (rate 1.0)
    never does.
    """

    mechanism: str
    rate: float
    kind: str = ""
    t_start: float = 0.0
    t_end: float = math.inf

    def __post_init__(self):
        if not self.mechanism:
            raise ConfigError("fault rule needs a mechanism name")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(
                f"fault rate must be in [0, 1], got {self.rate}")
        if self.t_end <= self.t_start:
            raise ConfigError(
                f"fault window [{self.t_start}, {self.t_end}) is empty")
        if not self.kind:
            object.__setattr__(self, "kind", default_kind(self.mechanism))

    def applies_at(self, t: float) -> bool:
        return self.t_start <= t < self.t_end


@dataclass(frozen=True)
class FaultEvent:
    """One resolved faulty crossing in the plan's timeline."""

    t: float
    mechanism: str
    label: str
    kind: str
    #: Retry attempts spent on the crossing (0 for a breaker fast-fail).
    attempts: int
    #: ``recovered`` | ``dark`` | ``dark_budget`` | ``breaker_open`` |
    #: ``stale``.
    outcome: str

    def line(self) -> str:
        return (f"t={self.t:.6f} mechanism={self.mechanism} "
                f"label={self.label} kind={self.kind} "
                f"attempts={self.attempts} outcome={self.outcome}")


@dataclass
class PlanStats:
    """Running totals a scenario summary is rendered from."""

    faults: int = 0
    recovered: int = 0
    dark: int = 0
    #: Crossings a wedged daemon answered with pre-wedge bytes.
    stale: int = 0
    retries: int = 0
    backoff_s: float = 0.0
    breaker_opens: int = 0
    faults_by_key: dict[tuple[str, str], int] = field(default_factory=dict)

    def count_fault(self, mechanism: str, kind: str) -> None:
        self.faults += 1
        key = (mechanism, kind)
        self.faults_by_key[key] = self.faults_by_key.get(key, 0) + 1


class FaultPlan:
    """A seeded set of fault rules plus all per-run chaos state.

    Parameters
    ----------
    seed:
        Root seed; every Bernoulli draw, retry draw and backoff jitter
        derives from it, so equal seeds replay equal timelines.
    rules:
        Ordered :class:`FaultRule` entries; for one crossing the first
        rule that fires determines the fault kind.
    policies:
        Optional per-mechanism :class:`~repro.chaos.retry.RetryPolicy`
        overrides (defaults follow each channel's Table II cost).
    breaker_threshold / breaker_cooldown:
        Circuit-breaker tuning shared by every (mechanism, device) pair.
    """

    def __init__(self, seed: int = 0xC4A05,
                 rules: tuple[FaultRule, ...] | list[FaultRule] = (),
                 policies: dict[str, object] | None = None,
                 breaker_threshold: int = 3, breaker_cooldown: int = 8):
        if seed < 0:
            raise ConfigError(f"fault-plan seed must be >= 0, got {seed}")
        self.seed = int(seed)
        self.rules = tuple(rules)
        self.policies = dict(policies) if policies else {}
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.rng = RngRegistry(derive_seed(self.seed, "chaos.jitter"))
        self.stats = PlanStats()
        self.timeline: list[FaultEvent] = []
        self._rules_by_mechanism: dict[str, tuple[FaultRule, ...]] = {}
        for rule in self.rules:
            self._rules_by_mechanism.setdefault(rule.mechanism, ())
            self._rules_by_mechanism[rule.mechanism] += (rule,)
        self._injectors: dict[tuple[str, str], object] = {}

    # -- composition ---------------------------------------------------------

    def rules_for(self, mechanism: str) -> tuple[FaultRule, ...]:
        return self._rules_by_mechanism.get(mechanism, ())

    def policy_for(self, mechanism: str):
        from repro.chaos.retry import default_policy

        policy = self.policies.get(mechanism)
        return policy if policy is not None else default_policy(mechanism)

    def rule_seed(self, rule: FaultRule, label: str) -> int:
        """The Bernoulli stream seed for one (rule, device) pair."""
        return derive_seed(
            self.seed,
            f"fault.{rule.mechanism}.{label}.{rule.kind}"
            f".{rule.t_start}.{rule.t_end}",
        )

    def retry_seed(self, mechanism: str, label: str) -> int:
        """The recovery-draw stream seed for one (mechanism, device)."""
        return derive_seed(self.seed, f"retry.{mechanism}.{label}")

    def injector(self, channel, mechanism: str, label: str):
        """The (cached) per-device injector this channel crossing
        consults — all of its state lives on this plan."""
        key = (mechanism, label)
        injector = self._injectors.get(key)
        if injector is None:
            from repro.chaos.injector import ChannelInjector

            injector = ChannelInjector(self, channel, mechanism, label)
            self._injectors[key] = injector
        return injector

    # -- timeline ------------------------------------------------------------

    def record(self, event: FaultEvent) -> None:
        self.timeline.append(event)

    def timeline_lines(self) -> list[str]:
        """Stable text rendering of the fault timeline — what the
        determinism property tests compare byte for byte."""
        return [event.line() for event in self.timeline]
