"""Sharded multi-device KV cluster: routing, replication, rebalancing.

The paper characterizes one PM983-class device; production KV serving
puts many behind a routing layer.  This package composes two existing
subsystems into that layer: the sweep-execution engine (:mod:`repro.exec`,
one simulated device per process-pool worker) and the faults subsystem
(:mod:`repro.faults`, whose read-only degradation is the retirement
signal the router rebalances away from).

* :mod:`repro.cluster.ring` — consistent-hash ring with virtual nodes;
* :mod:`repro.cluster.spec` — declarative cluster/tenant configuration;
* :mod:`repro.cluster.router` — deterministic routing plan: replication,
  per-tenant quotas, degradation handling and drain traffic;
* :mod:`repro.cluster.shard` — one shard's simulation cell (the unit the
  process pool executes);
* :mod:`repro.cluster.run` — cluster execution and result assembly.
"""
