"""Reproduction of the paper's direct-access bandwidth low-water marks.

The abstract and introduction (Sec. I / Sec. IV) quote a handful of
summary numbers.  Each is claimed once, on the row that measures it: the
host CPU reductions and end-to-end gains on ``fig2``, the QD1 latency
ratios on ``fig4``, the high-occupancy read ratio on ``fig3`` and the KVP
limit on ``fig7``.  This row measures the one pair no figure sweeps: KV
vs block 4 KiB random direct-I/O bandwidth on a populated device.  What
the paper reports is the ``paper`` text of the ``headline`` row's claims
in :mod:`repro.core.registry`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.core.experiment import DIRECT_SYSTEMS, build_rig, lab_geometry
from repro.core.figures import FILL_SCHEME
from repro.exec.runner import SweepRunner, grid
from repro.kvbench.report import Layout, Result, Table, label
from repro.kvbench.runner import run_phase
from repro.kvbench.workload import Pattern, WorkloadSpec
from repro.units import KIB

HEADLINE = Layout(sections=(Table(("op",), {
    "op": label("{op}"), "KV/block 4K rand BW (QD1, 45% fill)": "bw_ratio_4k_rand_{op}",
}),))

#: The probe's value size.
_PROBE_BYTES = 4 * KIB
#: The share of the KV device's free pages both devices are primed with:
#: populated, so the KV index no longer fits DRAM.
_PROBE_FILL = 0.45


def _probe_cell(
    device: str, population: int, n_ops: int, blocks_per_plane: int
) -> Dict[str, float]:
    """Mean QD1 random read then update latency on one primed device."""
    rig = build_rig(DIRECT_SYSTEMS[device], lab_geometry(blocks_per_plane))
    key_bytes = FILL_SCHEME.key_bytes
    base = WorkloadSpec(
        n_ops=n_ops, op="read", pattern=Pattern.UNIFORM,
        population=min(population, rig.pair_capacity(key_bytes, _PROBE_BYTES)),
        key_scheme=FILL_SCHEME, value_bytes=_PROBE_BYTES,
    )
    rig.prime(population, _PROBE_BYTES, FILL_SCHEME)
    return {
        name: run_phase(
            rig, f"headline.{device}.{name}", replace(base, op=op, seed=seed),
            1, rig.adapter_for(_PROBE_BYTES), drain=False,
        ).latency.mean()
        for name, op, seed in (("read", "read", 83), ("write", "update", 89))
    }


def headline_scalars(
    n_ops: int = 1000,
    blocks_per_plane: int = 16,
    runner: Optional[SweepRunner] = None,
) -> Result:
    """KV/block 4 KiB random direct-I/O bandwidth ratios at QD1.

    The paper's low-water marks are a direct-access comparison on a
    *populated* device, where the KV index no longer fits DRAM: both
    devices are primed with the pairs that fill 45% of the KV device's
    free pages.
    """
    population = build_rig("kvssd", lab_geometry(blocks_per_plane)).pair_capacity(
        FILL_SCHEME.key_bytes, _PROBE_BYTES, fraction=_PROBE_FILL
    )
    latency = grid(
        "headline",
        _probe_cell,
        {"device": DIRECT_SYSTEMS},
        dict(population=population, n_ops=n_ops, blocks_per_plane=blocks_per_plane),
        runner,
    )
    # Same op count and size: bandwidth ratio = inverse latency ratio.
    ops = ("read", "write")
    return HEADLINE.result({
        f"bw_ratio_4k_rand_{op}": latency["block"][op] / latency["kv"][op]
        for op in ops
    }, op=ops)
