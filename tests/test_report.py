import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppchars import cli
from ppchars.report import Report


def make(rows):
    return Report(command="x", parameters={"a": 1}, rows=rows)


def test_status_rules():
    assert make([]).status == "pass"
    assert make([{"ok": True}, {"value": 3}]).status == "pass"
    assert make([{"ok": True}, {"ok": False}]).status == "fail"
    assert make([{"ok": True}, {"skipped": True}]).status == "partial"
    # a failing row wins over skipped rows
    assert make([{"skipped": True}, {"ok": False}]).status == "fail"


def test_failures_listing():
    report = make([{"ok": True, "id": 1}, {"ok": False, "id": 2}])
    assert [r["id"] for r in report.failures] == [2]


def test_json_round_trip():
    report = make([{"ok": True, "nested": {"k": [1, 2]}}])
    decoded = json.loads(report.to_json())
    assert decoded == json.loads(json.dumps(report.to_dict(), default=str))
    assert decoded["schema"] == 1
    assert decoded["status"] == "pass"
    assert decoded["rows"][0]["nested"] == {"k": [1, 2]}


def test_csv_header_union_and_nesting():
    report = make([{"a": 1, "b": [1, 2]}, {"a": 2, "c": "x"}])
    lines = report.to_csv().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == '1,"[1, 2]",'
    assert lines[2] == "2,,x"


def _reference_json(value):
    return json.dumps(value, sort_keys=True, indent=2, default=str)


_scalars = (
    st.none() | st.booleans() | st.floats()
    | st.integers(-(10**30), 10**30)
    | st.text(st.sampled_from('ab}{],[:" \\\n\té€'), max_size=8)
    | st.sampled_from(["},\n  {", '"', "\u00e9\u20ac", ""])
)


def _dicts(values, max_size=4):
    # str keys or int keys: json.dumps cannot sort a mix of the two
    return (st.dictionaries(st.text(st.sampled_from('ab}",\n\u00e9'), max_size=4),
                            values, max_size=max_size)
            | st.dictionaries(st.integers(-50, 50), values, max_size=max_size))


_json_like = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(_dicts(_scalars), max_size=4)
                   | _dicts(inner)),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_dicts(_json_like, max_size=5), max_size=4),
       parameters=_dicts(_json_like, max_size=3))
def test_to_json_equals_indented_dumps(rows, parameters):
    report = Report(command="x", parameters=parameters, rows=rows)
    assert report.to_json() == _reference_json(report.to_dict())


def test_to_json_defaults_and_non_str_keys():
    # values that go through default=str, tuples, and bool and float keys
    # of dicts that hold containers
    report = make([{"ok": True, "set": {3}, "tuple": (1, (2, {})), "obj": object,
                    "bools": {True: [1], False: {}}, "floats": {0.5: [1], 2.5: {"a": 1}}}])
    assert report.to_json() == _reference_json(report.to_dict())


@pytest.mark.parametrize("argv", [
    ["partitions", "--pi", "10", "--k", "5", "2"],
    ["verify-symmetric", "--max-n", "10"],
    ["degrees", "--group", "S4", "--p", "3"],
    ["frobenius", "--p", "17"],
    ["solvable", "--p", "5", "--r", "19", "--cross-check"],
    ["landau", "--limit", "300"],
    ["bounds", "--table1"],
    ["bounds", "--table2"],
    ["bounds", "--defining"],
    ["bounds", "--classical", "--family", "d", "--qmax", "32"],
    ["bounds", "--e8-d1"],
    ["torus-search", "--qmax", "64"],
    ["torus-search", "--reconcile"],
    ["verify-all", "--quick"],
])
def test_to_json_equals_indented_dumps_for_every_subcommand(argv, monkeypatch):
    captured = []
    real = Report.to_json
    monkeypatch.setattr(Report, "to_json",
                        lambda self: captured.append(self) or real(self))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(argv)
    (report,) = captured
    assert out.getvalue() == _reference_json(report.to_dict()) + "\n"
