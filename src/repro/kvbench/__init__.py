"""KVbench-style workload generation, adapters, runner, and reporting."""

from repro._lazy import lazy_exports

__all__ = [
    "BlockAdapter",
    "HashKVAdapter",
    "KVSSDAdapter",
    "LSMAdapter",
    "Operation",
    "OpType",
    "Pattern",
    "RunResult",
    "WorkloadSpec",
    "YCSBDriver",
    "YCSBSpec",
    "ZipfianGenerator",
    "generate_ycsb",
    "drive_workload",
    "execute_workload",
    "format_series",
    "format_table",
    "generate_operations",
    "sequential_indices",
    "sliding_window_indices",
    "sparkline",
    "uniform_indices",
    "zipfian_indices",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "distributions": (
        "ZipfianGenerator", "sequential_indices", "sliding_window_indices",
        "uniform_indices", "zipfian_indices",
    ),
    "report": ("format_series", "format_table", "sparkline"),
    "runner": (
        "BlockAdapter", "HashKVAdapter", "KVSSDAdapter", "LSMAdapter",
        "RunResult", "drive_workload", "execute_workload",
    ),
    "workload": (
        "Operation", "OpType", "Pattern", "WorkloadSpec",
        "generate_operations",
    ),
    "ycsb": ("YCSBDriver", "YCSBSpec", "generate_ycsb"),
})
