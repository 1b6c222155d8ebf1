"""MonEQ configuration.

"In its default mode, MonEQ will pull data from the selected
environmental collection interface at the lowest polling interval
possible for the given hardware.  However, users have the ability to
set this interval to whatever valid value is desired."  (paper §III)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.faults import FaultPlan


@dataclass(frozen=True)
class MoneqConfig:
    """Session configuration.

    Parameters
    ----------
    polling_interval_s:
        None means "the lowest polling interval possible for the given
        hardware" (the max of the attached backends' minima).  Explicit
        values below a backend's minimum are rejected at initialize.
    buffer_slots:
        Record capacity per agent — "allocated to a reasonably large
        number ... while not consuming an excess of memory"; the paper
        notes the number "isn't set in stone".  The session's slab
        starts small and doubles up to this capacity as it fills; a
        session that collects more raises ``MoneqBufferFullError``.
    output_dir:
        Directory (in the node's VFS) for per-agent output files.
    tagging_enabled:
        Whether start/end tag calls are honored.
    block_ticks:
        Lookahead span of the columnar block-sampling engine: how many
        timer ticks the session may plan and collect in one slab before
        re-checking the event queue.  ``1`` means no lookahead: each
        tick collects a one-tick block when it fires.  Output is
        byte-identical either way; only the constant factor changes.
    fault_plan:
        Optional :class:`~repro.chaos.faults.FaultPlan` this session's
        reads cross their channels under: the session passes it to
        every ``read_block``, and no other session sees it.  Faulted
        crossings degrade to sensor-dark NaN readings instead of
        raising; ``None`` (the default) leaves the read path
        byte-identical to a chaos-free build.
    """

    polling_interval_s: float | None = None
    buffer_slots: int = 262_144
    output_dir: str = "/moneq"
    tagging_enabled: bool = True
    block_ticks: int = 4096
    fault_plan: "FaultPlan | None" = None

    def __post_init__(self):
        if self.polling_interval_s is not None and self.polling_interval_s <= 0.0:
            raise ConfigError(
                f"polling interval must be positive, got {self.polling_interval_s}"
            )
        if self.buffer_slots <= 0:
            raise ConfigError(f"buffer_slots must be positive, got {self.buffer_slots}")
        if self.block_ticks < 1:
            raise ConfigError(
                f"block_ticks must be >= 1 (1 means no lookahead), "
                f"got {self.block_ticks}"
            )
        if not self.output_dir.startswith("/"):
            raise ConfigError(f"output_dir must be absolute, got {self.output_dir!r}")

    def memory_bytes_per_agent(self, field_count: int) -> int:
        """Modelled MonEQ buffer footprint at full capacity: timestamp
        + fields, 8 bytes each — the 'essentially constant with respect
        to scale' memory overhead."""
        return self.buffer_slots * 8 * (field_count + 1)

    def resolve_interval(self, backends) -> float:
        """Validate the requested interval against every backend's
        hardware minimum, at session construction.

        Returns the effective interval: the hardware floor (the slowest
        backend's minimum governs a mixed-device session) when no
        explicit interval was requested.  An explicit interval below any
        backend's minimum raises :class:`ConfigError` naming the
        offending backend — sessions never clamp silently or fail
        mid-run.
        """
        if not backends:
            raise ConfigError("cannot resolve an interval for zero backends")
        worst = max(backends, key=lambda b: b.min_interval_s)
        floor = worst.min_interval_s
        if self.polling_interval_s is None:
            return floor
        if self.polling_interval_s < floor:
            raise ConfigError(
                f"polling interval {self.polling_interval_s} s below the "
                f"{floor} s hardware minimum of backend {worst.label!r} "
                f"({worst.platform}, mechanism {worst.mechanism!r})"
            )
        return self.polling_interval_s
