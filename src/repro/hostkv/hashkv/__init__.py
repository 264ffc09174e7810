"""Hash-index key-value store over raw block storage (Aerospike stand-in)."""
