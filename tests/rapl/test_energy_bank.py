"""The package's energy bank: one 1 ms grid for its four RAPL domains,
evaluated once per tick grid for every access path."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rapl.package as package_module
from repro.api.packs import all_packs, execute_scenario
from repro.rapl.domains import RaplDomain
from repro.rapl.package import SANDY_BRIDGE, SANDY_BRIDGE_EP, CpuPackage
from repro.sim.hashrand import hash_normal
from repro.sim.integrate import CumulativeIntegral
from repro.sim.rng import RngRegistry
from repro.workloads.base import Component, Phase, PhasedWorkload


def staircase(levels, phase_s=1.5):
    return PhasedWorkload("stairs", [
        Phase(f"p{i}", phase_s, {Component.CPU_CORES: cores,
                                 Component.CPU_UNCORE: uncore,
                                 Component.CPU_DRAM: dram})
        for i, (cores, uncore, dram) in enumerate(levels)])


def loaded(model=SANDY_BRIDGE_EP, seed=3, start=0.5):
    pkg = CpuPackage(model, rng=RngRegistry(seed))
    pkg.board.schedule(staircase([(0.95, 0.4, 0.3), (0.3, 0.1, 0.6)]),
                       t_start=start)
    return pkg


class _DomainTruth:
    def __init__(self, package, domain):
        self.package, self.domain = package, domain

    def value(self, t):
        return self.package.true_power(self.domain, t)


def per_domain_quanta(package, domain, times):
    """Oracle: the per-domain counter the bank replaced, with its own
    integral of one domain's power and its own jitter draw."""
    model = package.model
    seed = package.rng.seed(f"rapl.{model.name}.{package.socket}.{domain.value}")
    interval = float(model.counter_update_s)
    jitter_s = float(model.update_jitter_cycles / model.base_clock_hz)
    integral = CumulativeIntegral(_DomainTruth(package, domain), dt=1e-3)
    k = np.floor(times / interval).astype(np.int64)
    jitter = hash_normal(seed, k) * (jitter_s / 2.0)
    update_t = np.minimum(np.maximum(k * interval + jitter, 0.0), times)
    update_t = np.where(k <= 0, 0.0, update_t)
    energy = integral.value(update_t)
    return np.floor(energy / package.units.energy_j + 1e-9).astype(np.int64)


class TestOracle:
    @pytest.mark.parametrize("model", [SANDY_BRIDGE, SANDY_BRIDGE_EP])
    @pytest.mark.parametrize("seed", [1, 7, 12345])
    def test_rows_equal_per_domain_counters(self, model, seed):
        times = np.concatenate((
            [0.0, 1e-4, 9.99e-4, 1e-3],
            np.arange(0.002, 0.01, 0.00037),
            np.linspace(0.01, 4.7, 301)))
        block = loaded(model, seed).energy_quanta(times)
        assert block.shape == (len(RaplDomain), times.size)
        for row, domain in enumerate(RaplDomain):
            want = per_domain_quanta(loaded(model, seed), domain, times)
            np.testing.assert_array_equal(block[row], want)

    def test_raw_views_are_rows_of_the_block(self):
        pkg = loaded()
        times = np.linspace(0.0, 3.0, 61)
        block = pkg.energy_quanta(times)
        for row, domain in enumerate(RaplDomain):
            np.testing.assert_array_equal(
                pkg.energy_raw_block(domain, times), block[row] % (1 << 32))
            assert pkg.energy_raw(domain, 1.25) == int(
                pkg.energy_quanta(np.array([1.25]))[row][0] % (1 << 32))


class TestMemo:
    def test_one_evaluation_per_grid(self, monkeypatch):
        draws = []

        def counting(seed, index):
            draws.append(np.shape(index))
            return hash_normal(seed, index)

        monkeypatch.setattr(package_module, "hash_normal", counting)
        pkg = loaded()
        times = np.linspace(0.0, 2.0, 9)
        first = pkg.energy_quanta(times)
        assert pkg.energy_quanta(times.copy()) is first
        for domain in RaplDomain:
            pkg.energy_raw_block(domain, times)
        assert len(draws) == 1
        pkg.energy_quanta(times[:-1])
        assert len(draws) == 2

    def test_block_is_read_only(self):
        block = loaded().energy_quanta(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            block[0, 0] = 0

    def test_cap_write_invalidates(self):
        pkg = loaded()
        times = np.array([1.0, 2.0, 2.4])
        before = pkg.energy_quanta(times)
        pkg.set_power_limit(20.0, 1.5)
        after = pkg.energy_quanta(times)
        assert after is not before
        assert after[0, 2] < before[0, 2]

    def test_dvfs_ramp_evaluates_once_per_block(self, monkeypatch):
        """The msr, powercap and perf paths of a dvfs-ramp session all
        read each session block, and share one bank evaluation."""
        reads: list[bytes] = []
        draws = []
        quanta = CpuPackage.energy_quanta

        def reading(self, times):
            reads.append(np.asarray(times).tobytes())
            return quanta(self, times)

        def counting(seed, index):
            draws.append(1)
            return hash_normal(seed, index)

        monkeypatch.setattr(CpuPackage, "energy_quanta", reading)
        monkeypatch.setattr(package_module, "hash_normal", counting)
        execute_scenario(all_packs()["dvfs-ramp"])
        per_grid = Counter(reads)
        assert per_grid and set(per_grid.values()) == {3 * len(RaplDomain)}
        assert len(draws) == len(per_grid)


class TestWrapViews:
    def test_wrap_period(self):
        pkg = CpuPackage(SANDY_BRIDGE, rng=RngRegistry(7))
        assert pkg.wrap_period_at(1000.0) == pytest.approx(65.536)
        assert pkg.wrap_period_at(0.0) == float("inf")

    def test_joules_between_matches_the_block(self):
        pkg = loaded()
        q = pkg.energy_quanta(np.array([0.7, 2.9]))
        for row, domain in enumerate(RaplDomain):
            assert pkg.energy_joules_between(domain, 0.7, 2.9) == (
                int(q[row, 1] - q[row, 0]) * pkg.units.energy_j)
            assert pkg.wraps_between(domain, 0.7, 2.9) == 0


@st.composite
def staircases(draw):
    level = st.floats(min_value=0.0, max_value=1.0)
    phases = draw(st.lists(st.tuples(level, level, level),
                           min_size=1, max_size=4))
    return staircase(phases, phase_s=draw(st.floats(0.05, 2.0)))


class TestChunkInvariance:
    @given(workload=staircases(),
           start=st.floats(0.0, 2.0),
           splits=st.lists(st.floats(0.001, 6.0), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_chunked_reads_equal_one_read(self, workload, start, splits):
        """Reading a tick grid in chunks, in time order, leaves the same
        cumulative grid (before quantization) and the same quanta as
        reading it whole."""
        times = np.linspace(0.0, 6.0, 241)
        chunked = CpuPackage(SANDY_BRIDGE_EP, rng=RngRegistry(5))
        whole = CpuPackage(SANDY_BRIDGE_EP, rng=RngRegistry(5))
        for pkg in (chunked, whole):
            pkg.board.schedule(workload, t_start=start)
        bounds = np.searchsorted(times, sorted(splits))
        parts = [chunked.energy_quanta(part)
                 for part in np.split(times, bounds) if part.size]
        np.testing.assert_array_equal(np.concatenate(parts, axis=1),
                                      whole.energy_quanta(times))
        grid_c, cum_c = chunked._energy.grid(6.0)
        grid_w, cum_w = whole._energy.grid(6.0)
        n = min(grid_c.size, grid_w.size)
        np.testing.assert_array_equal(grid_c[:n], grid_w[:n])
        np.testing.assert_array_equal(cum_c[:, :n], cum_w[:, :n])
