#!/usr/bin/env python3
"""Quickstart: store, retrieve, and inspect a simulated KV-SSD.

Builds a KV-SSD rig (device + NVMe driver + SNIA KVS API in one isolated
simulation), runs a handful of operations, and prints what the paper's
instrumentation would show: per-op latency, device counters, and space
accounting.

Run:  python examples/quickstart.py
"""

from repro.core.experiment import build_kv_rig
from repro.errors import KeyNotFoundError
from repro.units import KIB, pretty_size, pretty_time


def main() -> None:
    rig = build_kv_rig()
    env, api, device = rig.env, rig.api, rig.device

    print(f"device: {device.array.geometry.describe()}")
    print(f"user capacity: {pretty_size(device.user_capacity_bytes)}, "
          f"KVP limit: {device.max_kvps:,}\n")

    def session(env):
        # Store a few pairs of different sizes.
        for index, value_bytes in enumerate((100, 4 * KIB, 30 * KIB)):
            key = b"demo-key-%07d" % index
            started = env.now
            yield env.process(api.store(key, value_bytes))
            print(f"store {key.decode()} ({pretty_size(value_bytes)}): "
                  f"{pretty_time(env.now - started)}")

        # Retrieve one back.
        started = env.now
        value = yield env.process(api.retrieve(b"demo-key-0000001"))
        print(f"retrieve demo-key-0000001 -> {pretty_size(value)}: "
              f"{pretty_time(env.now - started)}")

        # Membership checks are cheap (Bloom filters answer negatives).
        started = env.now
        present = yield env.process(api.exist(b"demo-key-9999999"))
        print(f"exist(absent key) -> {present}: "
              f"{pretty_time(env.now - started)}")

        # Deletes and the not-found path.
        yield env.process(api.delete(b"demo-key-0000000"))
        try:
            yield env.process(api.retrieve(b"demo-key-0000000"))
        except KeyNotFoundError:
            print("retrieve after delete raises KeyNotFoundError (good)")

        yield env.process(device.drain())

    env.run_until_complete(env.process(session(env)))

    print(f"\nafter the session (t={pretty_time(env.now)}):")
    print(f"  live pairs:        {device.live_kvps}")
    print(f"  device bytes:      {pretty_size(device.occupied_bytes)}")
    print(f"  space amp:         {device.stats.amplification():.2f}x "
          "(1 KiB minimum allocation pads the 100 B value)")
    print(f"  flash programs:    {device.stats.flash_programs}")
    print(f"  host CPU consumed: {rig.cpu.total_busy_us:.1f} us")


if __name__ == "__main__":
    main()
