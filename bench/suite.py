"""``python3 -m bench all``: the five workloads, one child process each.

Children run one after the other (no process pool: two at once would
share this host's two cores and time each other), each a fresh
single-threaded interpreter exactly as the driver starts them.  The
combined JSON this writes is what ``bench compare`` reads.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional

from bench import REPO_ROOT
from bench.catalog import WORKLOADS
from bench.workloads.common import OUT_DIR

#: The paper's two headline ratios, printed beside what the model gives.
#: The model is checked against the paper for direction and rough factor
#: only (EXPERIMENTS.md), so these are shape checks, not error figures.
PAPER = {"kv_over_block_write_p50": 2.5, "lsm_over_kv_cpu": 13.0}


def _child(mode: str, name: str, seed: int, seconds: float, scale: float) -> dict:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        out = Path(scratch) / "report.json"
        command = [
            sys.executable, "-m", "bench", mode, "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--scale", str(scale), "--out", str(out),
        ]
        completed = subprocess.run(
            command, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, check=False
        )
        for line in completed.stdout.splitlines()[:-1]:
            print(line)
        if not out.exists():
            raise SystemExit(
                f"{name}: child exited {completed.returncode} without a report"
            )
        return json.loads(out.read_text(encoding="ascii"))


def paper_ratios(reports: Dict[str, dict]) -> Dict[str, float]:
    """Cross-workload shape checks against the paper's headline claims."""
    kv, stacks = reports.get("kv_mixed"), reports.get("host_stacks")
    if kv is None or stacks is None:
        return {}
    kv_exact, stacks_exact = kv["exact"], stacks["exact"]
    return {
        "kv_over_block_write_p50": (
            kv_exact["kvftl.sim_write_p50_us"]
            / stacks_exact["blockftl.direct.sim_write_p50_us"]
        ),
        "lsm_over_kv_cpu": (
            stacks_exact["hostkv.lsm.sim_host_cpu_us_per_op"]
            / kv_exact["api.sim_host_cpu_us_per_op"]
        ),
    }


def run_all(
    seed: int, seconds: float, scale: float, out: Optional[str], traced: bool
) -> int:
    reports: Dict[str, dict] = {}
    traces: Dict[str, dict] = {}
    for name in WORKLOADS:
        reports[name] = _child("run", name, seed, seconds, scale)
        if traced:
            traces[name] = _child("trace", name, seed, seconds, scale)
    ratios = paper_ratios(reports)
    for key, value in ratios.items():
        print(f"# core.paper_ratio.{key} = {value:.2f}x (paper: {PAPER[key]}x; "
              "unvalidated against hardware, shape-checked)")
    document = {
        "seed": seed, "seconds": seconds, "scale": scale,
        "workloads": reports, "paper_ratios": ratios,
    }
    if traced:
        document["traces"] = {
            name: {"metrics": report["metrics"], "correct": report["correct"]}
            for name, report in traces.items()
        }
    text = json.dumps(document, indent=1, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="ascii")
    else:
        print(text)
    everything = list(reports.values()) + list(traces.values())
    return 0 if all(report["correct"] for report in everything) else 1
