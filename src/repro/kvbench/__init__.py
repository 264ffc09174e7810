"""KVbench-style workload generation, adapters, runner, and reporting."""
