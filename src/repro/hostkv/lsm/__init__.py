"""LSM-tree key-value store (RocksDB stand-in)."""
