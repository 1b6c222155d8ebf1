"""Pinned output bytes of the live MonEQ sessions.

Every session and chaos pack, at three seeds, plus eight NVML consumers
sharing one GPU, hash to recorded digests: performance work on the
device models and the mechanism layer must leave the session output
bytes alone.  The digest is SHA-256 over the sorted output paths and
their contents.  The rendered values are rounded to six decimals, but
they come from numpy's float64 kernels, so a platform whose ``exp``,
``log`` or ``cos`` rounds differently could move a digit.
"""

import hashlib

import pytest

from repro import testbeds
from repro.api.packs import all_packs, execute_scenario
from repro.core.moneq.backends import NvmlBackend
from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.session import MoneqSession
from repro.workloads.vectoradd import VectorAddWorkload

DIGESTS = {
    ("bmc_dark", 1): "56fb3b6fe380fffb5fa901991c087a95f83ee68a8c945ce1baf2f043cb0a5c02",
    ("bmc_dark", 7): "2a7f5d6dd2fe25c0084dd3fdc367b8b9cbd19141f583fa645cc9fc8103f74eef",
    ("bmc_dark", 12345): "a2987c13e2a872384858de451b26352c048f0beb30b3deed3699fa19a3b5d419",
    ("bus_noise", 1): "46f3f886e7ecf58309e9077087e7f34fd00d3115a2aa3bd41d0d624cd6a80f9e",
    ("bus_noise", 7): "9eb4afe537686d568c3d43d0c7dbb7655c57e946776a9ea83f5b95b8cc1c2ed8",
    ("bus_noise", 12345): "fe3465d1818982a52609b5c48aca0646fa6a49b2b16b9b5de63955d192ae3abc",
    ("daemon_wedge", 1): "c0cc509304cebfed4deaeb83df90026651afb144c017546da9721d732f2a62bc",
    ("daemon_wedge", 7): "9d8817bc0f845bc75dfb02adf407103dea665960bce9546b35879d922607a308",
    ("daemon_wedge", 12345): "57bcc93d7d43c58634daa972e13618dc94e599f4d535b9ae2a6aed37d929669c",
    ("dvfs-ramp", 1): "68996263ce0cf7f30d52a6c24fbbe8be189bb4a49d1cb6c90f90ac772d50951c",
    ("dvfs-ramp", 7): "9921762e48fd470dacbcb285c6c4865cfa1aa066a8f91d754ec490d0215635af",
    ("dvfs-ramp", 12345): "53220311d0dd9313612dc55b65ee19457dc00326f9f1c0cdb1464da86df2c6e2",
    ("ipmi-bmc-rapl", 1): "8050df2dccbb6bd1103c078ad1fee79664f1d5d5cb216e9dc6be91845c6ccdb4",
    ("ipmi-bmc-rapl", 7): "b38cab49227ad8fe82999b5301efe08d90cca32c4a0ca8be9b046b2411e5ed25",
    ("ipmi-bmc-rapl", 12345): "b25d35781af47d4f1387623aa52db014ff760b6630dfa28a091431c94320d29a",
    ("nvml-powercap-k40", 1): "30dfe00bb0cc1c0f607d0fc0f2bbf38d416a1f443c06e74f46e08727a037e60e",
    ("nvml-powercap-k40", 7): "529f6fed62d153e54505dfb476b4f1d1864e4f867b32b4d36643b54294d2bddd",
    ("nvml-powercap-k40", 12345): "532b87c338ae31fead397df392edfdb1469d14b6fe6a6a06efe84bea3974d0be",
    ("phi-micsmc", 1): "5ac8bd81a55226c3aebd9522c0775780b9a0271bd41629f3da62946f303db8e8",
    ("phi-micsmc", 7): "1251116d71721273e63f0aa8e041d408d404464057b939305a5b900c8fb902f0",
    ("phi-micsmc", 12345): "5df7de6877eb65f1dffa7b6c9f98b5e133784358b044f779b0f09c07d46ef3fd",
    ("thermal-excursion", 1): "a89f4721ecf82bff51faa0db707cc2989446503958b17dc6555dad4c58168dc2",
    ("thermal-excursion", 7): "2b32340e6f9be4d25b82fc3d027765068fd4f316e4b613783cc4f438871c9065",
    ("thermal-excursion", 12345): "e58ff2dc119ec5b3b44540256fefa3fb860fe4bbcbc009e494cfb7e9d09c7d8d",
    ("shared-gpu", 1): "ec175fbbce8da24cd169fac68bc3b59841b44771a36b45417bc4275ce5059633",
    ("shared-gpu", 7): "3248c43c0d7f0e3c7beabcea91c728fa39ec4d8f1b01bc8b0f7b6e298c7f1eb8",
    ("shared-gpu", 12345): "a7306ff0c2d6b68b1105efa2505cb060090ae1c3e30d6efa8a1d299e37c1f47f",
}


def digest(outputs: dict[str, str]) -> str:
    h = hashlib.sha256()
    for path in sorted(outputs):
        h.update(path.encode())
        h.update(b"\0")
        h.update(outputs[path].encode())
        h.update(b"\0")
    return h.hexdigest()


def shared_gpu_outputs(seed: int, consumers: int = 8,
                       ticks: int = 100) -> dict[str, str]:
    """Eight NVML consumers polling one GPU in one session (the channel
    cache's hit path)."""
    node, gpu, _ = testbeds.gpu_node(seed=seed)
    gpu.board.schedule(VectorAddWorkload(), t_start=0.0)
    backends = []
    for i in range(consumers):
        backend = NvmlBackend(gpu)
        backend.label = f"{backend.label}.{i}"
        backends.append(backend)
    poll = backends[0].min_interval_s
    session = MoneqSession(
        backends, node.events, vfs=node.vfs,
        config=MoneqConfig(polling_interval_s=poll, block_ticks=256))
    node.events.run_until(ticks * poll + poll / 2)
    result = session.finalize()
    return {path: node.vfs.read_text(path) for path in result.output_paths}


def test_every_live_pack_is_pinned():
    live = {name for name, spec in all_packs().items()
            if spec.kind in ("session", "chaos")}
    assert live | {"shared-gpu"} == {name for name, _ in DIGESTS}


@pytest.mark.parametrize("name,seed", sorted(DIGESTS))
def test_session_output_bytes(name, seed):
    if name == "shared-gpu":
        outputs = shared_gpu_outputs(seed)
    else:
        outputs = execute_scenario(all_packs()[name], seed=seed).outputs
    assert digest(outputs) == DIGESTS[name, seed]
