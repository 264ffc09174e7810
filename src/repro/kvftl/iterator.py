"""Iterator bucket management.

Beside the global index, the device files every stored key into an
iterator bucket chosen by the key's first 4 bytes (Sec. II).  Buckets make
prefix iteration possible but add their own write traffic: bucket pages
are appended to flash as keys accumulate.

The model tracks per-bucket key counts and converts accumulation into
periodic bucket-page flush work, which the device charges to the shared
index region.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError
from repro.kvftl.keyhash import iterator_bucket


class IteratorBuckets:
    """Per-prefix key accounting with amortized flush work."""

    def __init__(self, flush_keys: int) -> None:
        if flush_keys < 1:
            raise ConfigurationError(f"flush_keys must be >= 1, got {flush_keys}")
        self.flush_keys = flush_keys
        self._counts: Dict[bytes, int] = {}
        self._pending_since_flush = 0
        self.bucket_page_writes = 0

    def note_store(self, key: bytes) -> int:
        """Record a stored key; returns bucket pages to flush now (0 or 1)."""
        bucket = iterator_bucket(key)
        self._counts[bucket] = self._counts.get(bucket, 0) + 1
        self._pending_since_flush += 1
        if self._pending_since_flush >= self.flush_keys:
            self._pending_since_flush = 0
            self.bucket_page_writes += 1
            return 1
        return 0

    def note_bulk(self, representative_key: bytes, count: int) -> None:
        """Register ``count`` keys sharing the representative's bucket.

        Used by bulk fills, once per bucket their keys span.  Flush debt
        is settled immediately (bulk fills are primed, not timed), so
        only the page-write statistic advances.
        """
        if count < 1:
            raise ConfigurationError(f"bulk count must be >= 1, got {count}")
        bucket = iterator_bucket(representative_key)
        self._counts[bucket] = self._counts.get(bucket, 0) + count
        self.bucket_page_writes += count // self.flush_keys

    def note_delete(self, key: bytes) -> None:
        """Record a key removal (bucket counts shrink; tombstones elided)."""
        bucket = iterator_bucket(key)
        count = self._counts.get(bucket, 0)
        if count <= 0:
            raise ConfigurationError(
                f"delete from empty iterator bucket {bucket!r}"
            )
        if count == 1:
            del self._counts[bucket]
        else:
            self._counts[bucket] = count - 1

    def bucket_count(self, prefix4: bytes) -> int:
        """Keys currently filed under ``prefix4``."""
        return self._counts.get(prefix4, 0)

    def buckets(self) -> List[bytes]:
        """All non-empty bucket ids, sorted for determinism."""
        return sorted(self._counts)

    @property
    def total_keys(self) -> int:
        """Keys across all buckets."""
        return sum(self._counts.values())
