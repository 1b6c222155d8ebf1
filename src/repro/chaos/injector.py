"""The channel-crossing injector: faults in, dark readings out.

One :class:`ChannelInjector` serves one (mechanism, device label) pair
under one :class:`~repro.chaos.faults.FaultPlan`.  The generic
``Mechanism.read_block(times, plan=plan)`` takes its injector from the
plan it was handed (:meth:`~repro.chaos.faults.FaultPlan.injector`)
and, per collected tick, applies the verdict:

* **delivered** — the crossing succeeded (possibly after retries);
  the sensor's value passes through untouched;
* **dark** — retries or the timeout budget ran out, or the circuit
  breaker failed fast; every field of that row becomes
  :data:`DARK_READING` (NaN) and
  ``repro_collector_errors_total{mechanism,kind}`` counts the failure;
* **stale** — the daemon is wedged (paper §II): the exchange answers
  promptly, but with the last bytes the daemon produced before it
  wedged.  The mechanism serves the previous *delivered* values — no
  retries fire (nothing looks broken at the wire), the breaker counts
  a success (bytes arrived), and
  ``repro_chaos_stale_reads_total{mechanism}`` counts the lie.

Injection happens strictly **after** the sensor source has collected
the grid, so a retried crossing re-issues the *exchange*, never the
counter read underneath — stateful sources advance exactly once per
tick and retries cannot double-count energy across RAPL wrap
boundaries, by construction.

Decisions are drawn per channel *exchange* (``queries_per_read`` of
them per tick) from counter-based hashes, so a tick's fault probability
honors how many bus round trips it really makes, and a long block
draws bit-identically to the same ticks read one block at a time.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.faults import FaultEvent, FaultPlan, FaultRule
from repro.chaos.retry import CLOSED, CircuitBreaker
from repro.obs.instruments import (
    CHAOS_DARK_READS,
    CHAOS_FAULTS,
    CHAOS_STALE_READS,
    COLLECTOR_ERRORS,
    RETRY_ATTEMPTS,
    RETRY_BACKOFF_SECONDS,
    RETRY_EXHAUSTED,
)
from repro.sim.hashrand import hash_uniform

#: What a consumer sees for a crossing that never delivered: the
#: sensor is dark, not zero — NaN keeps dark rows unmistakable in
#: output files and trivially filterable in analysis.
DARK_READING = float("nan")

#: The error ``kind`` recorded when an open breaker fails fast (the
#: originating fault kind already counted when the breaker opened).
BREAKER_OPEN_KIND = "sensor_dark"

#: The fault kind whose crossings deliver *stale* bytes instead of
#: going dark: a wedged daemon answers promptly with its last output.
WEDGED_KIND = "daemon_wedged"

#: Per-crossing verdicts (internal to the injector/mechanism seam).
_DELIVERED, _DARK, _STALE = 0, 1, 2


class ChannelInjector:
    """Per-(mechanism, device) fault machinery, stateful only via its
    plan (exchange counter, retry counter, jitter stream, breaker).

    The plan holds its injectors, so an injector holds what it writes
    of the plan (its stats and timeline), not the plan itself.
    """

    def __init__(self, plan: FaultPlan, channel, mechanism: str, label: str):
        self.stats = plan.stats
        self.timeline = plan.timeline
        self.mechanism = mechanism
        self.label = label
        self.queries_per_tick = 1
        self.rules: tuple[FaultRule, ...] = plan.rules_for(mechanism)
        self.policy = plan.policy_for(mechanism)
        self.breaker = CircuitBreaker(
            mechanism, failure_threshold=plan.breaker_threshold,
            cooldown_crossings=plan.breaker_cooldown,
        )
        self._retry_seed = plan.retry_seed(mechanism, label)
        self._jitter = plan.rng.stream(f"jitter.{mechanism}.{label}")
        self._exchange_counter = 0
        self._retry_counter = 0
        self._errors = COLLECTOR_ERRORS
        self._rule_seeds = [plan.rule_seed(rule, label) for rule in self.rules]
        #: Last post-quantization value delivered per field, carried
        #: across blocks so a wedged daemon can serve stale rows even
        #: when the wedge spans a chunk boundary.
        self.last_delivered: dict[str, float] = {}

    def bind(self, queries_per_tick: int) -> "ChannelInjector":
        self.queries_per_tick = queries_per_tick
        return self

    # -- the crossing --------------------------------------------------------

    def cross_block_verdicts(
            self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decide every crossing of one collected grid.

        Returns ``(dark, stale)`` boolean masks over ``times``: dark
        rows never delivered, stale rows delivered wedged (pre-wedge)
        bytes.  Exchange indices advance by ``queries_per_tick`` per
        tick whether or not a draw was needed, so decisions depend only
        on *which* crossing this is — never on breaker state or
        chunking.
        """
        n = times.shape[0]
        q = self.queries_per_tick
        start = self._exchange_counter
        self._exchange_counter += n * q
        dark = np.zeros(n, dtype=bool)
        stale = np.zeros(n, dtype=bool)
        if not self.rules:
            return dark, stale

        # Which tick faults, and with which rule?  Per-exchange
        # Bernoulli draws, reduced to "any exchange of the tick
        # faulted", windowed by the rule's [t_start, t_end).
        fault_rule = np.full(n, -1, dtype=np.int64)
        indices = start + np.arange(n * q, dtype=np.uint64)
        for r, (rule, seed) in enumerate(zip(self.rules, self._rule_seeds)):
            if rule.rate == 0.0:
                continue
            in_window = (times >= rule.t_start) & (times < rule.t_end)
            if not in_window.any():
                continue
            hit = hash_uniform(seed, indices) < rule.rate
            tick_hit = hit.reshape(n, q).any(axis=1) & in_window
            # First matching rule in declaration order wins.
            fault_rule[(fault_rule < 0) & tick_hit] = r

        if (fault_rule < 0).all() and self.breaker.state == CLOSED:
            # A clean block over a closed breaker is n successes: reset
            # the failure streak once (idempotent) and skip the loop.
            self.breaker.record_success()
            return dark, stale
        for i in range(n):
            verdict = self._cross_one(float(times[i]), int(fault_rule[i]))
            dark[i] = verdict == _DARK
            stale[i] = verdict == _STALE
        return dark, stale

    def _cross_one(self, t: float, rule_index: int) -> int:
        """Resolve one tick's crossing; returns its verdict."""
        stats = self.stats
        if not self.breaker.allow():
            # Open breaker: fail fast, no retries, no new fault draw.
            stats.dark += 1
            CHAOS_DARK_READS.labels(self.mechanism).inc()
            self._errors.labels(self.mechanism, BREAKER_OPEN_KIND).inc()
            self.timeline.append(FaultEvent(
                t, self.mechanism, self.label, BREAKER_OPEN_KIND,
                attempts=0, outcome="breaker_open",
            ))
            return _DARK
        if rule_index < 0:
            self.breaker.record_success()
            return _DELIVERED

        rule = self.rules[rule_index]
        stats.count_fault(self.mechanism, rule.kind)
        CHAOS_FAULTS.labels(self.mechanism, rule.kind).inc()

        if rule.kind == WEDGED_KIND:
            # The wedge is invisible at the wire: the exchange delivers
            # bytes on time, they're just the daemon's pre-wedge output.
            # No retries (nothing to retry against), the breaker counts
            # a success, and the consumer gets stale-beyond-the-window.
            stats.stale += 1
            CHAOS_STALE_READS.labels(self.mechanism).inc()
            self._errors.labels(self.mechanism, rule.kind).inc()
            self.breaker.record_success()
            self.timeline.append(FaultEvent(
                t, self.mechanism, self.label, rule.kind,
                attempts=0, outcome="stale",
            ))
            return _STALE

        attempts = 0
        backoff_total = 0.0
        outcome = "dark"
        policy = self.policy
        while attempts < policy.max_retries:
            attempts += 1
            backoff = policy.backoff_s(attempts, float(self._jitter.random()))
            if backoff_total + backoff > policy.budget_s:
                outcome = "dark_budget"
                break
            backoff_total += backoff
            RETRY_ATTEMPTS.labels(self.mechanism).inc()
            RETRY_BACKOFF_SECONDS.labels(self.mechanism).inc(backoff)
            stats.retries += 1
            stats.backoff_s += backoff
            # The fault persists with probability = its rate.
            u = float(hash_uniform(self._retry_seed, self._retry_counter))
            self._retry_counter += 1
            if u >= rule.rate:
                outcome = "recovered"
                break

        if outcome == "recovered":
            stats.recovered += 1
            self.breaker.record_success()
            self.timeline.append(FaultEvent(
                t, self.mechanism, self.label, rule.kind,
                attempts=attempts, outcome=outcome,
            ))
            return _DELIVERED

        stats.dark += 1
        opens_before = self.breaker.opens
        self.breaker.record_failure()
        stats.breaker_opens += self.breaker.opens - opens_before
        RETRY_EXHAUSTED.labels(self.mechanism).inc()
        CHAOS_DARK_READS.labels(self.mechanism).inc()
        self._errors.labels(self.mechanism, rule.kind).inc()
        self.timeline.append(FaultEvent(
            t, self.mechanism, self.label, rule.kind,
            attempts=attempts, outcome=outcome,
        ))
        return _DARK

