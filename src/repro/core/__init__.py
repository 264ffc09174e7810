"""The paper's deliverable: characterization harness and analytical model."""

from repro._lazy import lazy_exports

__all__ = [
    "BlockRig",
    "Fig2Result",
    "Fig3Result",
    "Fig4Result",
    "Fig5Result",
    "Fig6Result",
    "Fig7Result",
    "Fig8Result",
    "HashRig",
    "HeadlineResult",
    "KVRig",
    "KVSSDModel",
    "LSMRig",
    "LatencyBreakdown",
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
        "Fig2Result", "Fig3Result", "Fig4Result", "Fig5Result", "Fig6Result",
        "Fig7Result", "Fig8Result", "fig2_end_to_end", "fig3_index_occupancy",
        "fig4_value_size_concurrency", "fig5_packing_bandwidth",
        "fig6_foreground_gc", "fig7_space_amplification",
        "fig8_key_size_bandwidth",
    ),
    "headline": ("HeadlineResult", "headline_scalars"),
    "model": ("KVSSDModel", "LatencyBreakdown"),
})
