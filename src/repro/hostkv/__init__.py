"""Host-side storage stacks: file system, LSM-tree store, hash-index store."""
