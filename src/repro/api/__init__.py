"""Host-facing device APIs: the SNIA KVS library and direct block I/O."""
