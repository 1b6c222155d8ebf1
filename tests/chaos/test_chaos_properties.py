"""Determinism and non-interference properties of fault injection.

Three guarantees the chaos layer is built on:

* equal seeds replay equal fault timelines **and** equal session output
  bytes — scenario runs are reproducible experiments, not noise;
* a plan that injects nothing (zero rates, or no plan at all) leaves
  every output byte identical to a chaos-free run;
* injection happens above the sensor source, so retried crossings never
  re-read a stateful counter — delivered rows under faults are
  bit-identical to the clean run, including across RAPL wrap
  boundaries, and a long block decides identically to one-tick blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import testbeds
from repro.chaos import FaultPlan, FaultRule, run_scenario
from repro.core.moneq.backends import RaplMsrBackend
from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.session import MoneqSession
from repro.obs.instruments import RAPL_WRAP_CORRECTIONS
from repro.rapl.package import CpuModel
from repro.workloads.gaussian import GaussianEliminationWorkload

#: Same furnace as tests/properties/test_read_block_parity.py: hot
#: enough that the 65536 J RAPL counter wraps every ~88 s.
HOT_MODEL = CpuModel(
    name="hot-part", idle_w=600.0, cores_w=80.0, uncore_w=40.0, pp1_w=30.0,
    dram_idle_w=100.0, dram_w=20.0, tdp_w=900.0,
)

DURATION_S = 6.0


def _fleet_outputs(seed: int, duration_s: float = DURATION_S,
                   plan: FaultPlan | None = None) -> dict[str, str]:
    """One fleet-wide session's output files, optionally under a plan."""
    node, backends = testbeds.fleet_node(seed=seed)
    session = MoneqSession(list(backends.values()), node.events,
                           config=MoneqConfig(fault_plan=plan),
                           node_count=1, vfs=node.vfs)
    node.events.run_until(node.clock.now + duration_s)
    result = session.finalize()
    return {p: node.vfs.read_text(p) for p in result.output_paths}


class TestSameSeedSameTimeline:
    @pytest.mark.parametrize("scenario", ["bmc_dark", "bus_noise",
                                          "daemon_wedge"])
    def test_scenario_replays_bit_for_bit(self, scenario):
        first = run_scenario(scenario, seed=23, duration_s=DURATION_S)
        second = run_scenario(scenario, seed=23, duration_s=DURATION_S)
        assert first.summary_line() == second.summary_line()
        assert first.timeline_lines() == second.timeline_lines()
        assert first.outputs == second.outputs
        assert first.error_deltas == second.error_deltas

    def test_different_seed_different_timeline(self):
        a = run_scenario("bus_noise", seed=7, duration_s=DURATION_S)
        b = run_scenario("bus_noise", seed=8, duration_s=DURATION_S)
        # The fault pattern and jittered backoffs both derive from the
        # seed; two seeds agreeing on every one would be astronomical.
        assert (a.summary_line() != b.summary_line()
                or a.timeline_lines() != b.timeline_lines())


class TestZeroRateIsInvisible:
    def test_zero_rate_plan_byte_identical_to_no_plan(self):
        baseline = _fleet_outputs(seed=41)
        _, backends = testbeds.fleet_node(seed=41)
        plan = FaultPlan(
            seed=17,
            rules=tuple(FaultRule(name, rate=0.0) for name in backends),
        )
        under_plan = _fleet_outputs(seed=41, plan=plan)
        assert under_plan == baseline
        assert plan.timeline == []
        assert plan.stats.faults == 0
        assert plan.stats.dark == 0
        assert plan.stats.retries == 0

    def test_out_of_window_rules_are_invisible_too(self):
        baseline = _fleet_outputs(seed=42)
        plan = FaultPlan(seed=17, rules=(
            FaultRule("ipmb", rate=1.0, t_start=DURATION_S + 100.0),
        ))
        assert _fleet_outputs(seed=42, plan=plan) == baseline
        assert plan.timeline == []


def _hot_msr_backend(seed: int):
    node, _ = testbeds.rapl_node(
        seed=seed, model=HOT_MODEL, kernel="3.14",
        workload=GaussianEliminationWorkload(n=12_000),
    )
    return RaplMsrBackend(node.devices("cpu")[0], "s0")


#: A grid spanning several ~88 s counter wraps, with points straddling
#: the boundaries themselves.
WRAP_TIMES = np.sort(np.concatenate([
    np.arange(0.06, 320.0, 13.0),
    np.array([87.0, 87.5, 88.0, 88.5, 175.0, 176.0, 264.0]),
]))


class TestRetriesNeverDoubleCountEnergy:
    def test_delivered_rows_match_clean_run_across_wraps(self):
        """Injection sits above the source: a crossing that needed
        retries still consumed exactly one counter read, so every
        delivered row equals the clean run's row bit for bit — even
        when the energy delta behind it spans a 32-bit wrap."""
        before = RAPL_WRAP_CORRECTIONS.value("rapl_msr")
        clean = _hot_msr_backend(31).read_block(WRAP_TIMES)
        clean_wraps = RAPL_WRAP_CORRECTIONS.value("rapl_msr") - before

        backend = _hot_msr_backend(31)
        plan = FaultPlan(seed=5, rules=(FaultRule("rapl_msr", rate=0.4),))
        wraps_before = RAPL_WRAP_CORRECTIONS.value("rapl_msr")
        faulted = backend.read_block(WRAP_TIMES, plan=plan)
        wraps_delta = RAPL_WRAP_CORRECTIONS.value("rapl_msr") - wraps_before

        dark = np.isnan(faulted["pkg_w"])
        assert dark.any(), "rate 0.4 over 32 ticks never faulted"
        assert not dark.all(), "every tick went dark; nothing to compare"
        for name in clean.dtype.names:
            assert np.isnan(faulted[name][dark]).all()
            assert (faulted[name][~dark].tobytes()
                    == clean[name][~dark].tobytes())
        assert clean_wraps > 0, "grid never crossed a counter wrap"
        # Retries re-issue the exchange, not the read: the faulted run
        # decoded exactly as many wrap corrections as the clean one.
        assert wraps_delta == clean_wraps
        assert plan.stats.retries > 0


@given(seed=st.integers(0, 2**16), rate=st.floats(0.05, 0.6),
       splits=st.lists(st.integers(0, 38), min_size=0, max_size=3))
@settings(max_examples=6, deadline=None)
def test_block_sampling_decides_identically_to_scalar_ticking(
        seed, rate, splits):
    """Fault draws are counter-based (exchange indices, not generator
    state): chunking the grid arbitrarily — including the fully scalar
    one-tick chunking — produces the same dark rows, the same timeline
    and the same delivered bytes.  As in the chaos-free parity suite,
    both backends share one device (same label too, so the per-(rule,
    device) fault streams coincide); each gets its own same-seed plan."""
    times = WRAP_TIMES[:24]
    node, _ = testbeds.rapl_node(
        seed=seed, model=HOT_MODEL, kernel="3.14",
        workload=GaussianEliminationWorkload(n=12_000),
    )
    package = node.devices("cpu")[0]

    def run(chunk_bounds):
        backend = RaplMsrBackend(package, "s0")
        plan = FaultPlan(seed=seed + 1,
                         rules=(FaultRule("rapl_msr", rate=rate),))
        parts = [backend.read_block(times[a:b], plan=plan)
                 for a, b in zip(chunk_bounds[:-1], chunk_bounds[1:])
                 if b > a]
        return np.concatenate(parts), plan

    scalar_rows, scalar_plan = run(list(range(len(times) + 1)))
    bounds = [0] + sorted(set(splits)) + [len(times)]
    block_rows, block_plan = run(bounds)
    assert scalar_rows.tobytes() == block_rows.tobytes()
    assert scalar_plan.timeline_lines() == block_plan.timeline_lines()
    assert scalar_plan.stats.__dict__ == block_plan.stats.__dict__
