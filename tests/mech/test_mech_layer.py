"""Unit tests for the ``repro.mech`` layer's four quarter-parts:
freshness models, access channels (latency + quantization), mechanism
specs, and the registry."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.mech import (
    AccessChannel,
    FreshnessKind,
    FreshnessModel,
    MechanismSpec,
    Quantization,
)
from repro.mech.capability_decl import RAPL_DECL, XEON_PHI_DECL
from repro.mech.registry import get, mechanisms, register


class TestFreshnessModel:
    def test_generations_multiplies_depth(self):
        # EMON: data comes from the oldest of two 280 ms generations.
        model = FreshnessModel.generations(0.280, 2)
        assert model.min_interval_s == 0.560

    def test_refresh_and_floor_are_the_period(self):
        assert FreshnessModel.refresh(0.060).min_interval_s == 0.060
        assert FreshnessModel.floor(0.100).min_interval_s == 0.100

    def test_validation(self):
        with pytest.raises(ConfigError):
            FreshnessModel.floor(0.0)
        with pytest.raises(ConfigError):
            FreshnessModel.generations(0.280, 0)
        with pytest.raises(ConfigError):
            # depth only makes sense for generation-staged data.
            FreshnessModel(FreshnessKind.REFRESH, 0.060, depth=2)

    def test_note_survives(self):
        model = FreshnessModel.floor(0.060, note="documented jitter")
        assert model.note == "documented jitter"


class TestAccessChannel:
    def test_latency_multiplies_queries(self):
        channel = AccessChannel("msr", 0.03e-3)
        assert channel.latency_for(4) == 4 * 0.03e-3
        with pytest.raises(ConfigError):
            channel.latency_for(0)

    def test_with_latency_replaces_only_latency(self):
        channel = AccessChannel("nvml", 1.3e-3, permission="none")
        slow = channel.with_latency(5e-3)
        assert slow.per_query_latency_s == 5e-3
        assert slow.name == channel.name
        assert channel.per_query_latency_s == 1.3e-3  # original untouched

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            AccessChannel("bad", -1e-3)


class TestQuantization:
    def test_scalar_block_parity(self):
        q = Quantization("test", 10.0, 100)
        values = np.linspace(-1.0, 15.0, 1001)
        block = q.apply_block(values)
        for i, v in enumerate(values):
            assert q.apply(float(v)) == block[i]

    def test_clipping(self):
        q = Quantization("clip", 1000.0, 2**31 - 1)
        assert q.quanta(-5.0) == 0
        assert q.quanta(1e30) == 2**31 - 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            Quantization("bad", 0.0, 10)
        with pytest.raises(ConfigError):
            Quantization("bad", 10.0, 0)


def _spec(name="test-mech", **overrides):
    kwargs = dict(
        name=name,
        platform="RAPL",
        channel=AccessChannel("test-channel", 1e-3),
        freshness=FreshnessModel.floor(0.060),
        capability=RAPL_DECL,
        fields=("pkg_w",),
    )
    kwargs.update(overrides)
    return MechanismSpec(**kwargs)


class TestMechanismSpec:
    def test_derived_numbers(self):
        spec = _spec(queries_per_read=4)
        assert spec.min_interval_s == 0.060
        assert spec.read_latency_s == 4e-3

    def test_rejects_empty_or_duplicate_fields(self):
        with pytest.raises(ConfigError):
            _spec(fields=())
        with pytest.raises(ConfigError):
            _spec(fields=("pkg_w", "pkg_w"))

    def test_rejects_capability_platform_mismatch(self):
        with pytest.raises(ConfigError):
            _spec(capability=XEON_PHI_DECL)  # platform stays "RAPL"

    def test_rejects_zero_queries(self):
        with pytest.raises(ConfigError):
            _spec(queries_per_read=0)


class TestRegistry:
    def test_identical_reregistration_is_idempotent(self):
        spec = _spec(name="idempotent-mech")
        try:
            register(spec)
            register(_spec(name="idempotent-mech"))  # equal -> fine
            assert get("idempotent-mech") == spec
        finally:
            from repro.mech import registry
            registry._REGISTRY.pop("idempotent-mech", None)

    def test_conflicting_reregistration_raises(self):
        try:
            register(_spec(name="conflict-mech"))
            with pytest.raises(ConfigError):
                register(_spec(name="conflict-mech", queries_per_read=2))
        finally:
            from repro.mech import registry
            registry._REGISTRY.pop("conflict-mech", None)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError):
            get("no-such-mechanism")

    def test_all_eight_vendor_paths_registered(self):
        import repro.core.moneq.backends  # noqa: F401  (registers them)

        assert set(mechanisms()) >= {
            "emon", "rapl_msr", "rapl_powercap", "rapl_perf",
            "nvml", "sysmgmt", "micras", "ipmb",
        }
