"""Property tests over the *whole* registered fleet: every declared
mechanism, instantiated on its testbed, must honor its declaration —
the field list its ``read_at`` returns, the latency and minimum
interval MonEQ charges, and the capability column it reports."""

import numpy as np
import pytest

from repro import testbeds
from repro.bgq.emon import EmonInterface
from repro.bgq.topology import NodeBoard
from repro.core.capability import platform_capabilities
from repro.core.moneq.backends import (
    BgqEmonBackend,
    NvmlBackend,
    PhiIpmbBackend,
    PhiMicrasBackend,
    PhiMicsmcBackend,
    PhiSysMgmtBackend,
    RaplMsrBackend,
    RaplPerfBackend,
    RaplPowercapBackend,
)
from repro.errors import ConfigError
from repro.mech import mechanisms
from repro.mech.mechanism import Mechanism
from repro.mech.source import SensorSource
from repro.rapl.perf_event import PerfEventRapl
from repro.rapl.powercap import install_powercap_driver
from repro.sim.clock import VirtualClock
from repro.sim.rng import RngRegistry

SEED = 0x3EC4


def _make_emon():
    board = NodeBoard("R00-M0-N00", RngRegistry(SEED))
    return BgqEmonBackend(EmonInterface(board, VirtualClock()))


def _make_msr():
    node, _ = testbeds.rapl_node(seed=SEED)
    return RaplMsrBackend(node.devices("cpu")[0])


def _make_powercap():
    node, _ = testbeds.rapl_node(seed=SEED, kernel="3.13")
    install_powercap_driver(node)
    node.kernel.modprobe("intel_rapl")
    return RaplPowercapBackend(node)


def _make_perf():
    node, _ = testbeds.rapl_node(seed=SEED, kernel="3.14")
    return RaplPerfBackend(PerfEventRapl(node, node.devices("cpu")[0]))


def _make_nvml():
    _, gpu, _ = testbeds.gpu_node(seed=SEED)
    return NvmlBackend(gpu)


def _make_sysmgmt():
    return PhiSysMgmtBackend(testbeds.phi_node(seed=SEED).sysmgmt)


def _make_micras():
    return PhiMicrasBackend(testbeds.phi_node(seed=SEED).micras)


def _make_ipmb():
    return PhiIpmbBackend(testbeds.phi_node(seed=SEED).bmc)


def _make_micsmc():
    return PhiMicsmcBackend(testbeds.phi_node(seed=SEED).smc)


#: mechanism name -> live instance factory; one entry per registered
#: spec, enforced by test_every_registered_mechanism_is_exercised.
FACTORIES = {
    "emon": _make_emon,
    "rapl_msr": _make_msr,
    "rapl_powercap": _make_powercap,
    "rapl_perf": _make_perf,
    "nvml": _make_nvml,
    "sysmgmt": _make_sysmgmt,
    "micras": _make_micras,
    "ipmb": _make_ipmb,
    "micsmc": _make_micsmc,
}


def test_every_registered_mechanism_is_exercised():
    assert set(FACTORIES) == set(mechanisms())


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestDeclarationHonored:
    def test_read_at_keys_match_declared_fields(self, name):
        """The central property: the capability/field declaration and
        what a read actually returns cannot drift apart."""
        backend = FACTORIES[name]()
        spec = mechanisms()[name]
        row = backend.read_at(1.0)
        assert tuple(row) == spec.fields
        assert tuple(backend.fields()) == spec.fields

    def test_read_block_columns_match_declared_fields(self, name):
        backend = FACTORIES[name]()
        spec = mechanisms()[name]
        block = backend.read_block(np.array([1.0, 2.0, 3.0]))
        assert block.dtype.names == spec.fields

    def test_latency_and_interval_come_from_the_spec(self, name):
        backend = FACTORIES[name]()
        spec = mechanisms()[name]
        assert backend.min_interval_s == spec.min_interval_s
        assert backend.query_latency_s == spec.read_latency_s

    def test_capabilities_are_the_declared_platform_column(self, name):
        backend = FACTORIES[name]()
        spec = mechanisms()[name]
        assert backend.platform == spec.platform
        assert backend.mechanism == spec.name
        assert backend.capabilities() == platform_capabilities(spec.platform)

    def test_instrument_keyed_by_mechanism(self, name):
        backend = FACTORIES[name]()
        from repro.obs.instruments import collector

        assert backend.instrument is collector(name)


class TestCompositionValidation:
    def test_source_field_mismatch_rejected(self):
        """A mechanism whose source produces different columns than its
        declaration promises must fail loudly at composition time."""

        class WrongSource(SensorSource):
            def fields(self):
                return ("other_w",)

            def collect(self, times):
                return {"other_w": np.zeros(times.shape[0])}

        spec = mechanisms()["nvml"]
        with pytest.raises(ConfigError):
            Mechanism(spec, WrongSource(), label="wrong")

    def test_nvml_latency_override_keeps_spec_channel_intact(self):
        _, gpu, _ = testbeds.gpu_node(seed=SEED)
        slow = NvmlBackend(gpu, query_latency_s=5e-3)
        assert slow.query_latency_s == 5e-3
        # The registered declaration still carries the paper's number.
        assert mechanisms()["nvml"].channel.per_query_latency_s == 1.3e-3
