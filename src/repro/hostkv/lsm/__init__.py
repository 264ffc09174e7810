"""LSM-tree key-value store (RocksDB stand-in)."""

from repro._lazy import lazy_exports

__all__ = [
    "BlockCache",
    "CompactionTask",
    "LSMConfig",
    "LSMStore",
    "Memtable",
    "SSTable",
    "level_bytes",
    "level_target_bytes",
    "merge_runs",
    "overlapping",
    "pick_compaction",
    "split_entries",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "compaction": (
        "CompactionTask", "level_bytes", "level_target_bytes", "merge_runs",
        "overlapping", "pick_compaction", "split_entries",
    ),
    "memtable": ("Memtable",),
    "sstable": ("BlockCache", "SSTable"),
    "store": ("LSMConfig", "LSMStore"),
})
