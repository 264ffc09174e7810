"""``bench compare`` verdicts on synthetic inputs."""

import copy

from bench.compare import (
    BETTER, MODEL_CHANGED, OK, REGRESSION, UNRESOLVED, compare, verdict,
)

BOUNDS = {
    "setup_s": ("lower", 0.25),
    "host_ops_per_s": ("higher", 0.15),
    "sim_kops": ("higher", 0.10),
}


def report(ops_per_s=10_000.0, walls=(1.0, 1.01, 1.2), kops=50.0, setup=1.0):
    return {
        "correct": True, "errors": [], "sim_digest": "d" * 64,
        "metrics": {
            "setup_s": {"value": setup, "unit": "s"},
            "host_ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "sim_kops": {"value": kops, "unit": "1/ms_sim"},
        },
        "exact": {"sim_kops": kops, "ops": 1000},
        "repetitions": [
            {"laps_s": [0.25 * w, 0.75 * w], "setup_s": 0.5} for w in walls
        ],
    }


def document(**kwargs):
    return {"seed": 1, "seconds": 15.0, "scale": 1.0,
            "workloads": {"kv_mixed": report(**kwargs)}}


def what(before, after, metric="host_ops_per_s"):
    better, bound = BOUNDS[metric]
    return verdict(metric, better, bound, before, after)[0]


def test_host_metric_within_bound_is_ok():
    assert what(report(), report(ops_per_s=9_000.0)) == OK


def test_host_metric_beyond_bound_regresses():
    assert what(report(), report(ops_per_s=8_000.0)) == REGRESSION
    assert what(report(), report(setup=1.3), "setup_s") == REGRESSION


def test_host_metric_gain_is_better():
    assert what(report(), report(ops_per_s=12_000.0)) == BETTER


def test_wide_repetition_spread_is_unresolved_not_regression():
    noisy = report(ops_per_s=8_000.0, walls=(1.0, 1.3, 1.4))
    assert what(report(), noisy) == UNRESOLVED


def test_sim_drift_is_a_model_change_either_direction():
    assert what(report(), report(kops=50.0), "sim_kops") == OK
    assert what(report(), report(kops=50.0001), "sim_kops") == MODEL_CHANGED
    assert what(report(), report(kops=49.0), "sim_kops") == MODEL_CHANGED


def test_compare_exit_status():
    rows, failed = compare(document(), document(), BOUNDS)
    assert not failed and any("identical" in row for row in rows)
    _, failed = compare(document(), document(ops_per_s=5_000.0), BOUNDS)
    assert failed
    drifted = document()
    drifted["workloads"]["kv_mixed"]["exact"]["ops"] = 999
    rows, failed = compare(document(), drifted, BOUNDS)
    assert failed and any(MODEL_CHANGED in row for row in rows)
    other_seed = copy.deepcopy(document())
    other_seed["seed"] = 2
    _, failed = compare(document(), other_seed, BOUNDS)
    assert failed
