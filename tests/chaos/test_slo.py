"""SLO assertions for the chaos scenarios — the reliability contract:

* a faulted mechanism's failures are *counted*, with the right
  ``{mechanism, kind}`` labels on ``repro_collector_errors_total``;
* mechanisms the scenario does not touch produce byte-identical output
  to a chaos-free run — fault isolation, not fault spread;
* the session **completes and finalizes** whatever goes dark: a BMC
  outage costs one agent's rows, never the run.
"""

from repro import testbeds
from repro.core.moneq.session import MoneqSession
from repro.packs import execute_scenario, load_pack

DURATION_S = 6.0

#: Output path of the one out-of-band (IPMB) agent on the fleet rig.
IPMB_PATH = "/moneq/mic0-bmc.dat"
MICRAS_PATH = "/moneq/mic0-daemon.dat"


def _baseline_outputs(seed: int) -> dict[str, str]:
    node, backends = testbeds.fleet_node(seed=seed)
    session = MoneqSession(list(backends.values()), node.events,
                           node_count=1, vfs=node.vfs)
    node.events.run_until(node.clock.now + DURATION_S)
    result = session.finalize()
    return {p: node.vfs.read_text(p) for p in result.output_paths}


class TestBmcGoesDark:
    def test_errors_carry_the_right_labels(self):
        result = execute_scenario(load_pack("bmc_dark"), seed=11,
                                  duration_s=DURATION_S)
        # Every counted error belongs to the faulted mechanism …
        assert result.error_deltas, "a dark BMC must leave error counts"
        assert {mech for mech, _ in result.error_deltas} == {"ipmb"}
        # … split between the injected kind and the breaker's fast-fail
        # degradation once the channel is declared dark.
        kinds = {kind for _, kind in result.error_deltas}
        assert "bmc_dark" in kinds
        assert result.plan.stats.dark > 0
        assert result.plan.stats.recovered == 0  # rate 1.0 never heals

    def test_non_faulted_mechanisms_are_unharmed(self):
        result = execute_scenario(load_pack("bmc_dark"), seed=11,
                                  duration_s=DURATION_S)
        baseline = _baseline_outputs(seed=11)
        assert set(result.outputs) == set(baseline)
        differing = {p for p in baseline if result.outputs[p] != baseline[p]}
        assert differing == {IPMB_PATH}

    def test_session_completes_despite_the_outage(self):
        result = execute_scenario(load_pack("bmc_dark"), seed=11,
                                  duration_s=DURATION_S)
        assert result.ticks > 0
        assert len(result.outputs) == 9  # every fleet agent wrote a file
        # The ipmb agent kept its cadence: dark ticks are rows reading
        # nan, not missing rows.
        assert result.outputs[IPMB_PATH].count("\n") == \
            _baseline_outputs(seed=11)[IPMB_PATH].count("\n")
        assert "nan" in result.outputs[IPMB_PATH]

    def test_breaker_opened_and_fast_failed(self):
        result = execute_scenario(load_pack("bmc_dark"), seed=11,
                                  duration_s=DURATION_S)
        assert result.plan.stats.breaker_opens >= 1
        outcomes = [event.outcome for event in result.timeline]
        assert "breaker_open" in outcomes  # fast-fail crossings happened
        # Fast fails spend no retries — cheaper than re-proving a dead
        # bus on every tick.
        fast_fails = [e for e in result.timeline
                      if e.outcome == "breaker_open"]
        assert all(e.attempts == 0 for e in fast_fails)


class TestDaemonWedge:
    def test_only_the_daemon_path_degrades(self):
        result = execute_scenario(load_pack("daemon_wedge"), seed=19,
                                  duration_s=DURATION_S)
        assert {mech for mech, _ in result.error_deltas} == {"micras"}
        baseline = _baseline_outputs(seed=19)
        differing = {p for p in baseline if result.outputs[p] != baseline[p]}
        assert differing == {MICRAS_PATH}


class TestBusNoise:
    def test_transient_noise_mostly_recovers(self):
        result = execute_scenario(load_pack("bus_noise"), seed=7,
                                  duration_s=DURATION_S)
        s = result.plan.stats
        assert s.faults > 0
        assert s.recovered > 0
        assert s.retries >= s.recovered  # each recovery cost >= 1 retry
        assert s.backoff_s > 0.0
        # Recovered crossings deliver real readings: if nothing went
        # dark, the output is fault-free byte for byte.
        if s.dark == 0:
            assert not result.error_deltas
            for content in result.outputs.values():
                assert "nan" not in content
