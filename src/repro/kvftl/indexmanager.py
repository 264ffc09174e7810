"""Index managers and Bloom-filter membership checking.

The device uses multiple index managers to reduce contention on the
global index (Sec. II): each store hashes its key on a manager, stages the
entry in a local index, and merges batches into the global structure.
Managers also hold Bloom filters so reads and exist queries for absent
keys resolve without touching the index (Sec. II, "membership checking").

In the simulator the managers are a counted controller resource, the
device's ``index_managers`` (their parallelism is the Fig. 4
high-concurrency lever), and the Bloom filter is a deterministic
false-positive model keyed on the query key.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.kvftl.keyhash import hash_fraction

#: Salt mixed into the key before deriving the false-positive draw, so the
#: residency draw (plain hash) and the Bloom draw are independent.
_BLOOM_SALT = b"\x9e\x37\x79\xb9"


class BloomModel:
    """Deterministic Bloom-filter behaviour model.

    Real filters answer "definitely absent" or "maybe present".  For
    present keys the model always answers maybe-present (no false
    negatives); for absent keys it answers maybe-present with the
    configured false-positive rate, decided per key.
    """

    def __init__(self, fp_rate: float) -> None:
        if not 0.0 <= fp_rate <= 1.0:
            raise ConfigurationError(f"bloom FP rate {fp_rate} outside [0, 1]")
        self.fp_rate = fp_rate

    def maybe_present(self, key: bytes, actually_present: bool) -> bool:
        """Filter verdict for ``key`` given ground truth."""
        if actually_present:
            return True
        return hash_fraction(_BLOOM_SALT + key) < self.fp_rate

