"""The ledger (``BENCH_ledger.json``) and its one helper, ``pin``."""

import json
from contextlib import nullcontext

import pytest

from tests.conftest import PYTHON, Ledger

ROW = {"events": 3, "values": {"x": 0.5, "y": 1}}


def _ledger(tmp_path, regen=False, python=PYTHON, keep=None):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"identity": {"rows": {"a": ROW}},
                                "work": {"python": python, "calls": {"c": {"sim": 10}}}}))
    return Ledger(path, regen, keep)


def test_compare_reports_every_drifted_leaf(tmp_path):
    ledger = _ledger(tmp_path)
    ledger.pin("identity.rows.a", ROW)
    with pytest.raises(pytest.fail.Exception) as failure:
        ledger.pin("identity.rows.a", {"events": 4, "values": {"x": 0.5, "z": 2}})
    assert str(failure.value).splitlines()[1:] == [
        "  identity.rows.a.events: ledger 3 -> live 4",
        "  identity.rows.a.values.y: ledger 1 -> live '<absent>'",
        "  identity.rows.a.values.z: ledger '<absent>' -> live 2",
    ]


def test_work_is_exact_on_its_minor_and_a_ceiling_on_others(tmp_path):
    for python, live, holds in [(PYTHON, 10, True), (PYTHON, 9, False),
                                ("2.7", 9, True), ("2.7", 11, False)]:
        with nullcontext() if holds else pytest.raises(pytest.fail.Exception):
            _ledger(tmp_path, python=python).pin("work.calls.c", {"sim": live})


def test_regen_writes_once_sorted_in_ascii_keeping_unvisited_keys(tmp_path):
    ledger = _ledger(tmp_path, regen=True)
    ledger.pin("work.calls.d", {"sim": 5})
    ledger.pin("identity.spans.f", "é")
    assert "spans" not in json.loads(ledger.path.read_text())["identity"]
    ledger.save()
    text = ledger.path.read_text(encoding="ascii")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert json.loads(text) == {
        "identity": {"rows": {"a": ROW}, "spans": {"f": "é"}},
        "work": {"python": PYTHON, "calls": {"c": {"sim": 10}, "d": {"sim": 5}}},
    }


def test_regen_on_another_minor_checks_work_as_ceilings_and_stores_none(tmp_path):
    ledger = _ledger(tmp_path, regen=True, python="2.7")
    ledger.pin("work.calls.c", {"sim": 9})
    with pytest.raises(pytest.fail.Exception):
        ledger.pin("work.calls.c", {"sim": 11})
    assert ledger.stored == [] and ledger.data["work"]["calls"]["c"] == {"sim": 10}


def test_regen_drops_the_pins_of_a_removed_row(tmp_path):
    ledger = _ledger(tmp_path, regen=True, keep={"identity.rows": ["b"]})
    ledger.pin("identity.rows.b", ROW)
    ledger.save()
    assert json.loads(ledger.path.read_text())["identity"]["rows"] == {"b": ROW}


def test_no_pin_outlives_its_row_or_sanitizer_target(ledger):
    assert set(ledger.keep) == {"identity.rows", "identity.sanitizer", "identity.examples"}
    for parent, names in ledger.keep.items():
        assert sorted(ledger.data["identity"][parent.split(".")[1]]) == names
