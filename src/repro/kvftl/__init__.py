"""KV-SSD firmware personality (hash-indexed, log-packing FTL)."""
