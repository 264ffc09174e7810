"""KV-SSD firmware personality (hash-indexed, log-packing FTL)."""

from repro._lazy import lazy_exports

__all__ = [
    "BlobLayout",
    "BloomModel",
    "GlobalHashIndex",
    "IndexManagerPool",
    "IteratorBuckets",
    "KVSSD",
    "KVSSDConfig",
    "KeyScheme",
    "MergeWork",
    "PrimedPopulation",
    "blobs_per_page",
    "hash_fraction",
    "iterator_bucket",
    "key_hash64",
    "layout_blob",
    "space_amplification",
    "usable_page_bytes",
    "validate_key",
    "validate_value_size",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "blob": (
        "BlobLayout", "blobs_per_page", "layout_blob", "space_amplification",
        "usable_page_bytes", "validate_key", "validate_value_size",
    ),
    "config": ("KVSSDConfig",),
    "device": ("KVSSD",),
    "hashindex": ("GlobalHashIndex", "MergeWork"),
    "indexmanager": ("BloomModel", "IndexManagerPool"),
    "iterator": ("IteratorBuckets",),
    "keyhash": ("hash_fraction", "iterator_bucket", "key_hash64"),
    "population": ("KeyScheme", "PrimedPopulation"),
})
