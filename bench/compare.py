"""``python3 -m bench compare BEFORE.json AFTER.json``.

Both files come from ``python3 -m bench all --out``.  Every end-to-end
metric is compared per workload row against its bound from
``BENCHMARK.json``; each side's value and the ratio are printed with the
base named.  Simulated metrics and counts are exact for a seed, so any
drift there is labelled ``model changed`` rather than better or worse: a
change meant only to speed up the simulator must leave all of them
identical.  A host metric whose own repetitions disagree by more than its
bound is ``unresolved``: the run cannot tell a regression from noise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

from bench import REPO_ROOT

#: "Exact" means equal to this relative tolerance.
EXACT_RTOL = 1e-9

OK, BETTER, REGRESSION = "ok", "better", "REGRESSION"
MODEL_CHANGED, UNRESOLVED = "MODEL CHANGED", "unresolved"
#: Verdicts that make ``compare`` exit non-zero.
FAILING = (REGRESSION, MODEL_CHANGED)


def load_bounds() -> Dict[str, Tuple[str, float]]:
    """metric -> (better, bound) from the manifest the driver also reads."""
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    return {
        entry["name"]: (entry["better"], entry["bound"])
        for entry in manifest["end_to_end"]
    }


def _differs(before: float, after: float) -> bool:
    scale = max(abs(before), abs(after))
    return scale > 0 and abs(before - after) > EXACT_RTOL * scale


def exact_drift(before: dict, after: dict) -> List[str]:
    """Names in the two reports' exact views that are not equal."""
    a, b = before["exact"], after["exact"]
    return sorted(
        name for name in a.keys() | b.keys()
        if name not in a or name not in b or _differs(a[name], b[name])
    )


def repetition_spread(report: dict, metric: str) -> float:
    """How far the run's own repetitions disagree, as a share of the value.

    ``host_ops_per_s`` is a best-of, lap by lap: it is pinned when each
    lap's two fastest readings agree.  ``setup_s`` is a median: its
    resolution is the distance between the quartiles of the set-ups (the
    first one runs on cold caches and is slower by design) over the
    reported value.  A peak RSS is a single reading with no spread of its
    own.
    """
    reps = report.get("repetitions", [])
    if len(reps) < 2:
        return 0.0
    if metric == "host_ops_per_s":
        laps = [sorted(lap) for lap in zip(*(rep["laps_s"] for rep in reps))]
        fastest = sum(lap[0] for lap in laps)
        return (sum(lap[1] for lap in laps) - fastest) / fastest
    if metric == "setup_s":
        low, _, high = statistics.quantiles([rep["setup_s"] for rep in reps], n=4)
        return (high - low) / report["metrics"]["setup_s"]["value"]
    return 0.0


def verdict(
    metric: str, better: str, bound: float, before: dict, after: dict
) -> Tuple[str, float, float, float]:
    """(verdict, before value, after value, worsening as a share of before)."""
    old = before["metrics"][metric]["value"]
    new = after["metrics"][metric]["value"]
    worse = (old - new) / old if better == "higher" else (new - old) / old
    if metric.startswith("sim_"):
        return (MODEL_CHANGED if _differs(old, new) else OK), old, new, worse
    spread = max(repetition_spread(before, metric), repetition_spread(after, metric))
    if spread > bound:
        return UNRESOLVED, old, new, worse
    if worse > bound:
        return REGRESSION, old, new, worse
    return (BETTER if worse < -bound else OK), old, new, worse


def compare(before: dict, after: dict, bounds: Dict[str, Tuple[str, float]]) -> Tuple[List[str], bool]:
    """Rows to print and whether anything failed."""
    rows: List[str] = []
    failed = False
    for key in ("seed", "seconds", "scale"):
        if before.get(key) != after.get(key):
            rows.append(f"inputs differ: {key} {before.get(key)} vs {after.get(key)}")
            failed = True
    for name, old_report in before["workloads"].items():
        new_report = after["workloads"].get(name)
        if new_report is None:
            rows.append(f"{name}: missing from the second file")
            failed = True
            continue
        for side, report in (("before", old_report), ("after", new_report)):
            if not report["correct"]:
                rows.append(f"{name}: {side} run was incorrect: {report['errors']}")
                failed = True
        for metric, (better, bound) in bounds.items():
            what, old, new, worse = verdict(metric, better, bound, old_report, new_report)
            rows.append(
                f"{name:<18} {metric:<18} before {old:>14.6f}  after {new:>14.6f}  "
                f"after/before {new / old:>7.4f} (base: before)  "
                f"worse by {worse:>+8.2%} (bound {bound:.0%})  {what}"
            )
            failed = failed or what in FAILING
        drifted = exact_drift(old_report, new_report)
        if drifted:
            shown = ", ".join(drifted[:8]) + (" ..." if len(drifted) > 8 else "")
            rows.append(
                f"{name:<18} {MODEL_CHANGED}: {len(drifted)} simulated values or "
                f"counts differ ({shown}); sim_digest {old_report['sim_digest'][:12]} "
                f"vs {new_report['sim_digest'][:12]}"
            )
            failed = True
        else:
            rows.append(
                f"{name:<18} every simulated value and count identical "
                f"(sim_digest {old_report['sim_digest'][:12]})"
            )
    return rows, failed


def compare_files(before_path: str, after_path: str) -> int:
    before = json.loads(Path(before_path).read_text(encoding="ascii"))
    after = json.loads(Path(after_path).read_text(encoding="ascii"))
    rows, failed = compare(before, after, load_bounds())
    for row in rows:
        print(row)
    print("FAIL" if failed else "PASS")
    return 1 if failed else 0
