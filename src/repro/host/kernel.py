"""Simulated Linux kernel: version gates and loadable drivers.

The paper's RAPL section turns on two kernel facts: perf_event gained
RAPL support in Linux 3.14 ("a much newer version of kernel than most
distributions have"), and without it one must load the ``msr`` module and
open root-only character devices.  :class:`Kernel` models exactly that:
a version, a set of loaded modules, and hooks drivers use to register
device nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import DriverError


@dataclass(frozen=True, order=True)
class KernelVersion:
    """A (major, minor, patch) kernel version, totally ordered."""

    major: int
    minor: int
    patch: int = 0

    def __str__(self) -> str:
        return f"{self.major}.{self.minor}.{self.patch}"

    @classmethod
    def parse(cls, text: str) -> "KernelVersion":
        parts = text.split(".")
        if not 2 <= len(parts) <= 3:
            raise DriverError(f"unparseable kernel version {text!r}")
        nums = [int(p) for p in parts] + [0] * (3 - len(parts))
        return cls(*nums)


#: First kernel whose perf_event exposes RAPL counters.
PERF_RAPL_MIN_VERSION = KernelVersion(3, 14)

#: What "most distributions of Linux have" circa the paper (RHEL 6 era).
TYPICAL_2015_KERNEL = KernelVersion(2, 6, 32)


class Kernel:
    """A kernel instance on a node: version + loaded modules."""

    def __init__(self, version: KernelVersion | str = TYPICAL_2015_KERNEL):
        self.version = (
            KernelVersion.parse(version) if isinstance(version, str) else version
        )
        self._modules: dict[str, object] = {}
        self._on_load: dict[str, Callable[[], object]] = {}

    @property
    def loaded_modules(self) -> list[str]:
        return sorted(self._modules)

    def register_module(self, name: str, factory: Callable[[], object]) -> None:
        """Make a module available for :meth:`modprobe` (i.e. present in
        the module tree, not yet loaded)."""
        self._on_load[name] = factory

    def modprobe(self, name: str) -> object:
        """Load a module; idempotent, returns the module object."""
        if name in self._modules:
            return self._modules[name]
        factory = self._on_load.get(name)
        if factory is None:
            raise DriverError(f"no such module: {name}")
        module = factory()
        self._modules[name] = module
        return module

    def rmmod(self, name: str) -> None:
        """Unload a module."""
        module = self._modules.pop(name, None)
        if module is None:
            raise DriverError(f"module not loaded: {name}")
        unload = getattr(module, "unload", None)
        if unload is not None:
            unload()

    def module(self, name: str) -> object:
        """Return a loaded module or raise."""
        try:
            return self._modules[name]
        except KeyError:
            raise DriverError(f"module not loaded: {name}") from None

    def is_loaded(self, name: str) -> bool:
        return name in self._modules

    def supports_perf_rapl(self) -> bool:
        """perf_event RAPL events exist from Linux 3.14 on."""
        return self.version >= PERF_RAPL_MIN_VERSION
