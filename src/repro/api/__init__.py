"""``repro.api`` — the versioned, supported public surface (v6).

Since API v2 the surface is **namespaced**: each sub-surface groups
one concern, and new code imports from the namespace it needs.

=====================  ====================================================
Namespace              Concern
=====================  ====================================================
``repro.api.session``  MonEQ session lifecycle (the two-line API)
``repro.api.mech``     vendor mechanisms, channels, POSIX credentials
``repro.api.data``     sharded store, envdb, readings, aggregates, tail
``repro.api.chaos``    fault plans, retry policies, scenarios
``repro.api.exec``     experiment engine and result cache
``repro.api.errors``   the supported exception hierarchy
``repro.api.service``  the live monitoring query service
``repro.api.fleet``    federated multi-cluster fleets and sweeps
``repro.api.packs``    declarative scenario packs over the engine
=====================  ====================================================

Compatibility policy
--------------------
* Names listed in a namespace's ``__all__`` are **supported**: they
  keep their signatures and semantics within a major version of the
  package, and removals or breaking changes are announced one minor
  release ahead via a deprecation note in ``docs/api.md``.
* The v1 flat names (``repro.api.ShardedStore``, …), deprecated
  through API v2, are removed in v3: each lives only in its namespace.
* Deep imports (``repro.core.moneq.session``, ``repro.bgq.envdb``, …)
  keep working — nothing is hidden — but they are implementation
  modules: they may move or change between minor releases without
  notice.  New code should import from a ``repro.api`` namespace.
* :data:`API_VERSION` identifies this surface; it bumps only when a
  supported name changes incompatibly.

See ``docs/api.md`` for the name-by-name reference, the table of
removed v1 flat names and what changed in v4, v5 and v6.
"""

from __future__ import annotations

from repro._version import __version__
from repro.api import (
    chaos,
    data,
    errors,
    exec,
    fleet,
    mech,
    packs,
    service,
    session,
)

#: Version of the supported surface (not the package release).
API_VERSION = "6"

#: The nine namespaced sub-surfaces.
NAMESPACES = {
    "session": session,
    "mech": mech,
    "data": data,
    "chaos": chaos,
    "exec": exec,
    "errors": errors,
    "service": service,
    "fleet": fleet,
    "packs": packs,
}

__all__ = [
    "API_VERSION",
    "NAMESPACES",
    "__version__",
    "chaos",
    "data",
    "errors",
    "exec",
    "fleet",
    "mech",
    "packs",
    "service",
    "session",
]
