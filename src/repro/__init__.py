"""repro — a simulation-based reproduction of "KV-SSD: What Is It Good For?"
(Saha, Kim, Maruf, Bhimani; DAC 2021).

The paper characterizes a Samsung KV-SSD against its block-firmware twin
and two host-side KV stores.  This package rebuilds that entire testbed in
software:

* :mod:`repro.sim` — deterministic discrete-event engine;
* :mod:`repro.flash` — NAND geometry, timing, and the timed array;
* :mod:`repro.blockftl` / :mod:`repro.kvftl` — the two firmware
  personalities over identical flash;
* :mod:`repro.nvme` / :mod:`repro.api` — command set, driver, and the
  SNIA KVS + direct block APIs;
* :mod:`repro.hostkv` — ext4 stand-in, RocksDB stand-in (LSM), Aerospike
  stand-in (hash index);
* :mod:`repro.kvbench` — workload generation and queue-depth running;
* :mod:`repro.metrics` — latency/bandwidth/CPU/space instrumentation;
* :mod:`repro.core` — the characterization harness reproducing every
  figure, plus the analytical performance model.

Quick start::

    from repro.core.experiment import build_kv_rig

    with build_kv_rig() as rig:
        done = rig.env.process(rig.api.store(b"hello-key-000016", 4096))
        rig.env.run_until_complete(done)
        print(f"store completed at t={rig.env.now:.1f}us")
"""

__version__ = "1.0.0"
