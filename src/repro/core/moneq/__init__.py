"""MonEQ — the unified power-profiling library.

The Python port of the paper's §III contribution.  The two-line usage
contract is preserved::

    session = moneq.initialize(node)   # MonEQ_Initialize()
    ...                                # user code (simulated run)
    result = moneq.finalize(session)   # MonEQ_Finalize()

Internals mirror the paper's description: a per-hardware minimum polling
interval used by default, a (virtual) SIGALRM timer per agent, records
appended to an array "local to the finest granularity possible on the
system" (``buffer_slots`` records at most, grown as it fills), tagging
with post-run marker injection, and most of the cost pushed to
initialize/finalize so the only unavoidable run-time overhead is the
periodic collection call.
"""

from repro.core.moneq.config import MoneqConfig
from repro.core.moneq.backends import (
    BgqEmonBackend,
    NvmlBackend,
    PhiIpmbBackend,
    PhiMicrasBackend,
    PhiSysMgmtBackend,
    RaplMsrBackend,
    RaplPerfBackend,
    RaplPowercapBackend,
)
from repro.core.moneq.overhead import OverheadReport
from repro.core.moneq.session import MoneqResult, MoneqSession
from repro.core.moneq.api import finalize, initialize, profile_run
from repro.mech.mechanism import Backend

__all__ = [
    "MoneqConfig",
    "Backend",
    "BgqEmonBackend",
    "RaplMsrBackend",
    "RaplPerfBackend",
    "RaplPowercapBackend",
    "NvmlBackend",
    "PhiSysMgmtBackend",
    "PhiMicrasBackend",
    "PhiIpmbBackend",
    "MoneqSession",
    "MoneqResult",
    "OverheadReport",
    "initialize",
    "finalize",
    "profile_run",
]
