"""Location-prefix sharding.

Records shard by the leading component of their location string — the
rack (``R07``) for BG/Q locations like ``R07-M1-N03-BPM``, the hostname
stem for cluster nodes — so all sensors of one rack/midplane land on
the same shard and the common "one board/rack over a window" query
touches exactly one shard.  The mapping is deterministic (CRC-32 of the
shard key), so a store rebuilt from the same records always places them
identically.
"""

from __future__ import annotations

import zlib

from repro.errors import ConfigError

#: Separator between location components (IBM convention: R07-M1-N03).
LOCATION_SEPARATOR = "-"


def shard_key(location: str, depth: int = 1) -> str:
    """The part of a location that decides its shard: the first
    ``depth`` ``-``-separated components (rack, or rack-midplane at
    depth 2)."""
    return LOCATION_SEPARATOR.join(location.split(LOCATION_SEPARATOR)[:depth])


class ShardMap:
    """Deterministic location → shard assignment.

    Parameters
    ----------
    n_shards:
        Number of independent stores.  1 reproduces the paper's single
        DB2 server.
    depth:
        How many location components form the shard key (1 = rack).
    """

    def __init__(self, n_shards: int = 1, depth: int = 1):
        if n_shards <= 0:
            raise ConfigError(f"shard count must be positive, got {n_shards}")
        if depth <= 0:
            raise ConfigError(f"shard key depth must be positive, got {depth}")
        self.n_shards = int(n_shards)
        self.depth = int(depth)

    def shard_of(self, location: str) -> int:
        """The shard index a location's records live on."""
        if self.n_shards == 1:
            return 0
        key = shard_key(location, self.depth)
        # "surrogatepass": a lone surrogate hashes like any other code
        # point, so every shard count accepts what one shard does.
        return zlib.crc32(key.encode("utf-8", "surrogatepass")) % self.n_shards

    def shards_for_prefix(self, location_prefix: str) -> list[int]:
        """Shards a location-prefix query must visit.

        When the prefix pins the whole shard key (it contains at least
        ``depth`` complete components), only that key's shard can hold
        matches.  A partial first component (``R0`` matches ``R00`` and
        ``R01``) or an empty prefix conservatively fans out to every
        shard.
        """
        if self.n_shards == 1:
            return [0]
        parts = location_prefix.split(LOCATION_SEPARATOR)
        # The depth-th component is complete only if a separator (or
        # more components) follows it.
        if len(parts) > self.depth:
            return [self.shard_of(location_prefix)]
        return list(range(self.n_shards))
