"""NVMe command-set and host driver models."""
