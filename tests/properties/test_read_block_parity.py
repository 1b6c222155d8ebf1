"""Parity properties of the columnar block-sampling paths.

Every vendor backend overrides :meth:`Backend.read_block` with a
vectorized implementation; the block-sampling engine's byte-identical
output guarantee rests on those overrides being **bit-identical** to
looping the scalar ``read_at`` over the same grid.  These tests pin that
equality down — including arbitrary chunking of the grid (stateful
counter backends carry ``_last`` across calls; cached model grids must
not depend on read chunking), RAPL counter-wrap boundaries, and EMON
stale-generation edges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import testbeds
from repro.bgq.emon import GENERATION_PERIOD_S, EmonInterface
from repro.bgq.topology import NodeBoard
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
from repro.rapl.package import CpuModel
from repro.rapl.perf_event import PerfEventRapl
from repro.rapl.powercap import install_powercap_driver
from repro.sim.clock import VirtualClock
from repro.sim.rng import RngRegistry
from repro.workloads.gaussian import GaussianEliminationWorkload

#: A (fictional) furnace of a part: hot enough that the 65536 J RAPL
#: counter period is ~100 s, so wrap boundaries are cheap to reach.
HOT_MODEL = CpuModel(
    name="hot-part", idle_w=600.0, cores_w=80.0, uncore_w=40.0, pp1_w=30.0,
    dram_idle_w=100.0, dram_w=20.0, tdp_w=900.0,
)


def _scalar_rows(backend, times, clock=None):
    """The reference: loop the scalar read path over the grid.  When a
    clock is given, pin it to each sample time first (the powercap
    sysfs files render at the current clock — exactly what the session
    guarantees when its tick handler runs)."""
    out = np.zeros(len(times), dtype=[(n, "f8") for n in backend.fields()])
    for i, t in enumerate(times):
        if clock is not None:
            clock.advance_to(float(t))
        row = backend.read_at(float(t))
        for name, value in row.items():
            out[i][name] = value
    return out


def _block_rows(backend, times, splits, plan=None):
    """Native blocks over the same grid, chunked at ``splits``, read
    under ``plan``."""
    bounds = [0] + sorted(set(splits)) + [len(times)]
    parts = [
        backend.read_block(times[a:b], plan=plan)
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    return np.concatenate(parts)


def _assert_identical(scalar, block):
    assert scalar.dtype == block.dtype
    assert scalar.tobytes() == block.tobytes()


def _grid(start, span, count, jitters):
    """A sorted grid of count points in [start, start+span), plus the
    raw jitter offsets layered near the start (may create duplicates)."""
    base = start + np.sort(np.asarray(jitters, dtype=np.float64)) * span
    extra = start + np.linspace(0.0, span, count, endpoint=False)
    return np.sort(np.concatenate([base, extra]))


# -- backend pairs ----------------------------------------------------------
# Each factory returns (scalar_backend, block_backend, clock-or-None) over
# ONE shared device, so both see identical sensor histories.  Stateful
# backends get separate instances (their _last carries are independent).


def _pair_emon(seed):
    board = NodeBoard("R00-M0-N00", RngRegistry(seed))
    emon = EmonInterface(board, VirtualClock())
    return BgqEmonBackend(emon), BgqEmonBackend(emon), None


def _pair_msr(seed):
    node, _ = testbeds.rapl_node(seed=seed)
    package = node.devices("cpu")[0]
    return RaplMsrBackend(package, "a"), RaplMsrBackend(package, "b"), None


def _pair_powercap(seed):
    node, _ = testbeds.rapl_node(seed=seed, kernel="3.13")
    install_powercap_driver(node)
    node.kernel.modprobe("intel_rapl")
    return (RaplPowercapBackend(node, label="a"),
            RaplPowercapBackend(node, label="b"), node.clock)


def _pair_perf(seed):
    node, _ = testbeds.rapl_node(seed=seed, kernel="3.14")
    perf = PerfEventRapl(node, node.devices("cpu")[0])
    return RaplPerfBackend(perf, "a"), RaplPerfBackend(perf, "b"), None


def _pair_nvml(seed):
    _, gpu, _ = testbeds.gpu_node(seed=seed)
    return NvmlBackend(gpu), NvmlBackend(gpu), None


def _pair_sysmgmt(seed):
    rig = testbeds.phi_node(seed=seed)
    return PhiSysMgmtBackend(rig.sysmgmt), PhiSysMgmtBackend(rig.sysmgmt), None


def _pair_micras(seed):
    rig = testbeds.phi_node(seed=seed)
    return PhiMicrasBackend(rig.micras), PhiMicrasBackend(rig.micras), None


def _pair_ipmb(seed):
    rig = testbeds.phi_node(seed=seed)
    return PhiIpmbBackend(rig.bmc), PhiIpmbBackend(rig.bmc), None


def _pair_micsmc(seed):
    rig = testbeds.phi_node(seed=seed)
    return PhiMicsmcBackend(rig.smc), PhiMicsmcBackend(rig.smc), None


PAIRS = {
    "emon": _pair_emon,
    "rapl_msr": _pair_msr,
    "rapl_powercap": _pair_powercap,
    "rapl_perf": _pair_perf,
    "nvml": _pair_nvml,
    "sysmgmt": _pair_sysmgmt,
    "micras": _pair_micras,
    "ipmb": _pair_ipmb,
    "micsmc": _pair_micsmc,
}


@pytest.mark.parametrize("mechanism", sorted(PAIRS))
@given(
    seed=st.integers(0, 2**16),
    start=st.floats(0.0, 10.0),
    span=st.floats(0.5, 25.0),
    count=st.integers(2, 40),
    jitters=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=6),
    splits=st.lists(st.integers(0, 45), min_size=0, max_size=4),
)
@settings(max_examples=12, deadline=None)
def test_read_block_matches_scalar_loop(mechanism, seed, start, span, count,
                                        jitters, splits):
    scalar, block, clock = PAIRS[mechanism](seed)
    times = _grid(start, span, count, jitters)
    _assert_identical(
        _scalar_rows(scalar, times, clock), _block_rows(block, times, splits)
    )


@pytest.mark.parametrize("mechanism", ["rapl_msr", "rapl_powercap", "rapl_perf"])
def test_rapl_parity_across_wrap_boundaries(mechanism):
    """Deltas that span 32-bit counter wraps decode identically on the
    scalar and block paths (HOT_MODEL wraps its pkg counter every
    ~88 s; the grid crosses several wraps at several strides)."""
    def pair(seed):
        node, _ = testbeds.rapl_node(
            seed=seed, model=HOT_MODEL, kernel="3.14",
            workload=GaussianEliminationWorkload(n=12_000),
        )
        install_powercap_driver(node)
        node.kernel.modprobe("intel_rapl")
        package = node.devices("cpu")[0]
        if mechanism == "rapl_msr":
            return RaplMsrBackend(package, "a"), RaplMsrBackend(package, "b"), None
        if mechanism == "rapl_powercap":
            return (RaplPowercapBackend(node, label="a"),
                    RaplPowercapBackend(node, label="b"), node.clock)
        perf = PerfEventRapl(node, package)
        return RaplPerfBackend(perf, "a"), RaplPerfBackend(perf, "b"), None

    from repro.obs.instruments import RAPL_WRAP_CORRECTIONS

    scalar, block, clock = pair(11)
    # Coarse strides straddle whole wraps; fine strides straddle the
    # boundary itself.
    times = np.sort(np.concatenate([
        np.arange(0.0, 320.0, 13.0),
        np.array([87.0, 87.5, 88.0, 88.5, 175.0, 176.0, 264.0]),
    ]))
    before = RAPL_WRAP_CORRECTIONS.value(mechanism)
    scalar_rows = _scalar_rows(scalar, times, clock)
    after_scalar = RAPL_WRAP_CORRECTIONS.value(mechanism)
    block_rows = _block_rows(block, times, [5, 19])
    after_block = RAPL_WRAP_CORRECTIONS.value(mechanism)
    assert after_scalar > before, "grid never crossed a counter wrap"
    # The block path applies exactly as many single-wrap corrections.
    assert after_block - after_scalar == after_scalar - before
    _assert_identical(scalar_rows, block_rows)


def test_emon_parity_at_generation_edges():
    """The EMON stale-generation rule (read the generation *before* the
    last update) is razor-edged at multiples of the 280 ms generation
    period; the vectorized path lands on the same side every time."""
    scalar, block, _ = _pair_emon(29)
    k = np.arange(1, 40, dtype=np.float64)
    eps = 1e-9
    times = np.sort(np.concatenate([
        k * GENERATION_PERIOD_S - eps,
        k * GENERATION_PERIOD_S,
        k * GENERATION_PERIOD_S + eps,
    ]))
    _assert_identical(
        _scalar_rows(scalar, times), _block_rows(block, times, [17, 61])
    )


def test_base_class_fallback_matches_native():
    """A backend without a native override still satisfies the block
    contract via the scalar-loop fallback in the base class."""
    from repro.mech.mechanism import Backend

    _, native, _ = _pair_nvml(3)
    times = np.linspace(0.0, 12.0, 50)
    fallback = Backend.read_block(native, times)
    _assert_identical(fallback, native.read_block(times))
