"""The paper's deliverable: characterization harness and analytical model."""

from repro._lazy import lazy_exports

__all__ = [
    "BlockRig",
    "ClosedFormBreakdown",
    "HashRig",
    "KVRig",
    "KVSSDModel",
    "LSMRig",
    "build_block_rig",
    "build_hash_rig",
    "build_kv_rig",
    "build_lsm_rig",
    "build_rig",
    "fig2_end_to_end",
    "fig3_index_occupancy",
    "fig4_value_size_concurrency",
    "fig5_packing_bandwidth",
    "fig6_foreground_gc",
    "fig7_space_amplification",
    "fig8_key_size_bandwidth",
    "headline_scalars",
    "lab_geometry",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "experiment": (
        "BlockRig", "HashRig", "KVRig", "LSMRig", "build_block_rig",
        "build_hash_rig", "build_kv_rig", "build_lsm_rig", "build_rig",
        "lab_geometry",
    ),
    "figures": (
        "fig2_end_to_end", "fig3_index_occupancy",
        "fig4_value_size_concurrency", "fig5_packing_bandwidth",
        "fig6_foreground_gc", "fig7_space_amplification",
        "fig8_key_size_bandwidth",
    ),
    "headline": ("headline_scalars",),
    "model": ("ClosedFormBreakdown", "KVSSDModel"),
})
