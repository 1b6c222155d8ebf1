"""Unit coverage of the chaos building blocks: fault rules, retry
policies, the circuit breaker's state machine, and plan activation."""

import pytest

from repro.chaos.faults import (
    FaultPlan,
    FaultRule,
    activate,
    active_plan,
    deactivate,
    default_kind,
)
from repro.chaos.retry import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    RetryPolicy,
    default_policy,
)
from repro.errors import ChaosError, ConfigError


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
    def test_context_manager_installs_and_removes(self):
        plan = FaultPlan(seed=1)
        assert active_plan() is None
        with plan.active():
            assert active_plan() is plan
        assert active_plan() is None

    def test_same_plan_nests(self):
        plan = FaultPlan(seed=1)
        with plan.active():
            with plan.active():
                assert active_plan() is plan
            # Inner exit must not tear down the outer activation.
            assert active_plan() is plan
        assert active_plan() is None

    def test_conflicting_plan_rejected(self):
        plan, other = FaultPlan(seed=1), FaultPlan(seed=2)
        with plan.active():
            with pytest.raises(ChaosError, match="different fault plan"):
                activate(other)
            # The failed activation left the original installed.
            assert active_plan() is plan
        assert active_plan() is None

    def test_deactivating_a_non_active_plan_rejected(self):
        with pytest.raises(ChaosError, match="not the active plan"):
            deactivate(FaultPlan(seed=3))

    def test_a_session_whose_tick_raises_releases_its_plan(self):
        """A tick that raises ends collection and uninstalls the
        session's plan, so a session that is never finalized cannot
        leak it to the rest of the process; a later finalize still
        writes what was collected."""
        from repro import testbeds
        from repro.core.moneq import MoneqConfig
        from repro.core.moneq.api import initialize
        from repro.errors import MoneqBufferFullError

        plan = FaultPlan(seed=1)
        node, _ = testbeds.rapl_node(seed=3)
        session = initialize(
            node, config=MoneqConfig(buffer_slots=10, fault_plan=plan))
        with pytest.raises(MoneqBufferFullError):
            node.events.run_until(5.0)
        assert active_plan() is None
        with FaultPlan(seed=2).active():
            pass
        result = session.finalize()
        assert active_plan() is None
        assert len(result.trace("pkg_w")) == 10

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
