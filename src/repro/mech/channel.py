"""Access channels: *how* a sensor source is reached, and what the
crossing costs.

A channel models the transport between the consumer and the device —
an EMON personality call, an MSR chardev pread, a sysfs text file, a
perf syscall, an NVML library call, a SCIF round trip, a pseudo-file
read, or an IPMB bus exchange.  It owns the three things every crossing
has regardless of vendor:

* a **per-query latency** (the paper's Table II numbers, previously
  scattered as ``*_LATENCY_S`` constants across vendor modules);
* a **permission requirement** (the msr chmod ritual, root for
  powercap writes, nothing at all for out-of-band paths);
* an optional **wire quantization** (the IPMB milli-unit fixed-point
  encoding, previously the ``quantize_*`` helpers in ``xeonphi.ipmb``).

The channel is also where observability hooks on: the shared
``repro_collector_*`` instrument for a mechanism is obtained through
its channel, so hot paths record queries at the layer instead of at
eight separate call sites.

A channel crossing is also the fault-injection seam, but the channel
holds no fault state: the reader passes its
:class:`~repro.chaos.faults.FaultPlan` to ``Mechanism.read_block``,
which asks that plan for the crossing's injector.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.host.permissions import R_OK, Credentials
from repro.host.permissions import check_access as _posix_check_access
from repro.obs.instruments import CollectorInstrument, collector


@dataclass(frozen=True)
class Quantization:
    """Resolution loss imposed by a wire encoding.

    Values are encoded as fixed-point quanta of ``1/scale`` units,
    clipped to ``[0, max_quanta]`` — what the consumer decodes is the
    encoded value, not the sensor's.  ``apply``/``apply_block`` are
    elementwise bit-identical (same half-to-even rounding and clip).
    """

    name: str
    scale: float
    max_quanta: int

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ConfigError(f"quantization scale must be positive, got {self.scale}")
        if self.max_quanta <= 0:
            raise ConfigError(
                f"quantization max_quanta must be positive, got {self.max_quanta}"
            )

    def quanta(self, value: float) -> int:
        """Encode one value as clipped fixed-point quanta."""
        return max(min(int(round(value * self.scale)), self.max_quanta), 0)

    def apply(self, value: float) -> float:
        """What the consumer decodes after one encode/decode round trip."""
        return self.quanta(value) / self.scale

    def apply_block(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`apply`, elementwise bit-identical to it."""
        quanta = np.clip(
            np.rint(np.asarray(values, dtype=np.float64) * self.scale),
            0, self.max_quanta,
        )
        return quanta / self.scale


#: The IPMB wire encoding: little-endian milli-units in 31 bits.
MILLI_UNITS = Quantization(name="milli-units", scale=1000.0, max_quanta=2**31 - 1)


@dataclass(frozen=True)
class AccessChannel:
    """One transport to a sensor source.

    ``per_query_latency_s`` is the cost of a single exchange on the
    channel; a mechanism that needs several exchanges per collection
    tick (one MSR read per RAPL domain, one IPMB round trip per SMC
    sensor) multiplies via :meth:`latency_for`.
    """

    name: str
    per_query_latency_s: float
    #: What a consumer must hold to use the channel ("none" for
    #: world-readable and out-of-band paths).
    permission: str = "none"
    quantization: Quantization | None = None
    description: str = ""

    def __post_init__(self):
        if self.per_query_latency_s < 0.0:
            raise ConfigError(
                f"channel latency must be >= 0, got {self.per_query_latency_s}"
            )

    def latency_for(self, queries: int) -> float:
        """Charged cost of one collection of ``queries`` exchanges."""
        if queries < 1:
            raise ConfigError(f"a collection needs >= 1 queries, got {queries}")
        return self.per_query_latency_s * queries

    def with_latency(self, per_query_latency_s: float) -> "AccessChannel":
        """The same channel at a different modeled latency (NVML's
        query cost is a constructor knob in the paper's experiments)."""
        return dataclasses.replace(
            self, per_query_latency_s=per_query_latency_s
        )

    @property
    def requires_privilege(self) -> bool:
        """Whether the channel is gated at all ("none" channels are
        world-readable or out-of-band)."""
        return self.permission != "none"

    def gate_mode(self) -> int:
        """The POSIX mode bits of the channel's declared gate: a
        world-readable node for "none", a root-only one otherwise —
        what the msr chardev looks like *before* the chmod ritual."""
        return 0o600 if self.requires_privilege else 0o444

    def check_access(self, creds: Credentials, path: str = "") -> None:
        """Enforce the declared permission requirement for ``creds``.

        Routed through the same :func:`repro.host.permissions.check_access`
        the VFS runs on every open, against a root-owned node of
        :meth:`gate_mode` — so a privileged channel denies exactly the
        way the real chardev would, with the same
        :class:`~repro.errors.AccessDeniedError`.
        """
        _posix_check_access(
            self.gate_mode(), 0, 0, creds, R_OK,
            path or f"channel {self.name} ({self.permission})",
        )

    def instrument(self, mechanism: str) -> CollectorInstrument:
        """The shared ``repro_collector_*`` handle for ``mechanism`` —
        the one place session hot paths get their query/latency
        instrumentation from."""
        return collector(mechanism)

