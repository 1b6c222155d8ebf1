"""Unit coverage of the chaos building blocks: fault rules, retry
policies, the circuit breaker's state machine, and plan ownership."""

import pytest

from repro import testbeds
from repro.chaos.faults import FaultPlan, FaultRule, default_kind
from repro.chaos.retry import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    RetryPolicy,
    default_policy,
)
from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.session import MoneqSession
from repro.errors import ConfigError, MoneqBufferFullError


class TestFaultRule:
    def test_kind_defaults_to_the_mechanism_failure_mode(self):
        assert FaultRule("ipmb", rate=0.5).kind == "ipmb_drop"
        assert FaultRule("rapl_msr", rate=0.5).kind == "eintr"
        assert FaultRule("nvml", rate=0.5, kind="custom").kind == "custom"
        assert default_kind("not-a-mechanism") == "io_error"

    def test_validation(self):
        with pytest.raises(ConfigError, match="mechanism"):
            FaultRule("", rate=0.5)
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            FaultRule("ipmb", rate=1.5)
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            FaultRule("ipmb", rate=-0.1)
        with pytest.raises(ConfigError, match="empty"):
            FaultRule("ipmb", rate=0.5, t_start=3.0, t_end=3.0)

    def test_window_is_half_open(self):
        rule = FaultRule("ipmb", rate=1.0, t_start=1.0, t_end=2.0)
        assert not rule.applies_at(0.999)
        assert rule.applies_at(1.0)
        assert rule.applies_at(1.999)
        assert not rule.applies_at(2.0)

    def test_zero_rate_is_a_valid_null_rule(self):
        assert FaultRule("ipmb", rate=0.0).rate == 0.0


class TestRetryPolicy:
    def test_backoff_is_exponential_in_the_attempt(self):
        policy = RetryPolicy(backoff_base_s=1e-3, backoff_multiplier=2.0,
                             jitter_frac=0.0)
        assert policy.backoff_s(1, 0.5) == pytest.approx(1e-3)
        assert policy.backoff_s(2, 0.5) == pytest.approx(2e-3)
        assert policy.backoff_s(4, 0.5) == pytest.approx(8e-3)

    def test_jitter_scales_symmetrically_around_the_base(self):
        policy = RetryPolicy(backoff_base_s=1e-3, jitter_frac=0.1)
        low, mid, high = (policy.backoff_s(1, u) for u in (0.0, 0.5, 1.0))
        assert low == pytest.approx(0.9e-3)
        assert mid == pytest.approx(1e-3)
        assert high == pytest.approx(1.1e-3)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter_frac=1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(budget_s=0.0)
        with pytest.raises(ConfigError, match="1-based"):
            RetryPolicy().backoff_s(0, 0.5)

    def test_default_policies_scale_budget_to_channel_cost(self):
        # A 22 ms IPMB bus exchange earns a longer deadline than a
        # 0.03 ms MSR pread (Table II ordering).
        assert default_policy("ipmb").budget_s > default_policy("rapl_msr").budget_s
        assert default_policy("unknown") == RetryPolicy()


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures_only(self):
        breaker = CircuitBreaker("ipmb", failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # streak broken
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opens == 1

    def test_cooldown_counts_crossings_then_half_opens(self):
        breaker = CircuitBreaker("ipmb", failure_threshold=1,
                                 cooldown_crossings=3)
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.allow() is False
        assert breaker.allow() is False
        # Third crossing is the half-open probe.
        assert breaker.allow() is True
        assert breaker.state == HALF_OPEN

    def test_half_open_probe_outcomes(self):
        def opened():
            b = CircuitBreaker("ipmb", failure_threshold=1,
                               cooldown_crossings=1)
            b.record_failure()
            assert b.allow() is True  # cooldown of 1: immediate probe
            assert b.state == HALF_OPEN
            return b

        healed = opened()
        healed.record_success()
        assert healed.state == CLOSED

        still_dark = opened()
        still_dark.record_failure()
        assert still_dark.state == OPEN
        assert still_dark.opens == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            CircuitBreaker("ipmb", failure_threshold=0)
        with pytest.raises(ConfigError):
            CircuitBreaker("ipmb", cooldown_crossings=0)


class TestPlanActivation:
    def test_plan_validation_and_rule_routing(self):
        with pytest.raises(ConfigError, match="seed"):
            FaultPlan(seed=-1)
        rules = (FaultRule("ipmb", rate=0.1),
                 FaultRule("ipmb", rate=1.0, t_start=5.0),
                 FaultRule("nvml", rate=0.2))
        plan = FaultPlan(seed=1, rules=rules)
        assert plan.rules_for("ipmb") == rules[:2]
        assert plan.rules_for("nvml") == rules[2:]
        assert plan.rules_for("emon") == ()

    def test_rule_seeds_separate_streams(self):
        plan = FaultPlan(seed=1)
        a = plan.rule_seed(FaultRule("ipmb", rate=0.5), "mic0-bmc")
        b = plan.rule_seed(FaultRule("ipmb", rate=0.5, kind="bmc_dark"),
                           "mic0-bmc")
        c = plan.rule_seed(FaultRule("ipmb", rate=0.5), "mic1-bmc")
        assert len({a, b, c}) == 3
        assert plan.retry_seed("ipmb", "mic0-bmc") != \
            plan.retry_seed("ipmb", "mic1-bmc")


# -- plan ownership: a plan reaches only the session that carries it ------

STEP_S = 1.5
STEPS = 4


def _plan_a():
    return FaultPlan(seed=5, rules=(FaultRule("ipmb", rate=0.5),
                                    FaultRule("rapl_msr", rate=0.3)))


def _plan_b():
    return FaultPlan(seed=9, rules=(
        FaultRule("nvml", rate=0.5),
        FaultRule("micras", rate=1.0, t_start=2.0)))


class _FleetRun:
    """One MonEQ session over every vendor path of a fresh fleet node,
    advanced by hand so runs can be interleaved."""

    def __init__(self, seed, plan, buffer_slots=262_144):
        self.node, backends = testbeds.fleet_node(seed=seed)
        self.plan = plan
        self.session = MoneqSession(
            list(backends.values()), self.node.events, node_count=1,
            vfs=self.node.vfs,
            config=MoneqConfig(fault_plan=plan, buffer_slots=buffer_slots))
        self.t0 = self.node.clock.now

    def advance(self, step):
        self.node.events.run_until(self.t0 + step * STEP_S)

    def finish(self):
        result = self.session.finalize()
        outputs = {p: self.node.vfs.read_text(p) for p in result.output_paths}
        timeline = self.plan.timeline_lines() if self.plan else []
        return outputs, timeline


def _solo(seed, make_plan):
    run = _FleetRun(seed, make_plan())
    for step in range(1, STEPS + 1):
        run.advance(step)
    return run.finish()


def _alternating(*runs):
    for step in range(1, STEPS + 1):
        for run in runs:
            run.advance(step)
    return [run.finish() for run in runs]


class TestPlanOwnership:
    def test_two_plans_interleaved_write_their_solo_bytes(self):
        """Two sessions with different plans, on two nodes advanced
        alternately in one process: each writes exactly the bytes and
        fault timeline of the same session run alone."""
        alone_a, alone_b = _solo(21, _plan_a), _solo(22, _plan_b)
        both_a, both_b = _alternating(_FleetRun(21, _plan_a()),
                                      _FleetRun(22, _plan_b()))
        assert both_a == alone_a
        assert both_b == alone_b
        assert alone_a[1] and alone_b[1], "a plan never fired"
        assert "nan" in "".join(alone_a[0].values())

    def test_a_planless_session_beside_a_faulted_one_is_untouched(self):
        alone = _solo(23, lambda: None)
        faulted, clean = _alternating(_FleetRun(24, _plan_a()),
                                      _FleetRun(23, None))
        assert faulted[1], "the faulted session's plan never fired"
        assert clean == alone
        assert "nan" not in "".join(clean[0].values())

    def test_a_tick_that_raises_leaves_other_sessions_untouched(self):
        """A faulted session whose buffer fills mid-run raises out of
        the event loop; finalize still writes what it collected, and a
        plan-less session run afterwards writes its solo bytes."""
        alone = _solo(25, lambda: None)
        full = _FleetRun(26, _plan_a(), buffer_slots=4)
        with pytest.raises(MoneqBufferFullError):
            full.advance(STEPS)
        outputs, _ = full.finish()
        assert all("records=4 " in text for text in outputs.values())
        assert _solo(25, lambda: None) == alone
