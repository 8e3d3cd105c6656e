import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("report_matrix", Path(__file__).parents[1] / "tools" / "report_matrix.py")
report_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_matrix)


def test_json_reports_differ_by_their_largest_relative_number_gap():
    a = b'{"c_maximal": 1.5, "rows": [0.25, 3], "name": "circle", "pass": true}'
    b = b'{"c_maximal": 1.5000000000000002, "rows": [0.2500000000000001, 3], "name": "circle", "pass": true}'
    # the gap of 0.25 is the larger one; it is relative to the larger of the two numbers
    assert report_matrix.report_gap(a, b, ".json") == (0.2500000000000001 - 0.25) / 0.2500000000000001
    assert report_matrix.report_gap(a, a, ".json") == 0.0
    # a key, a string, a list length or a boolean that differs is structure, not a number
    for other in (
        b'{"c_max": 1.5, "rows": [0.25, 3], "name": "circle", "pass": true}',
        b'{"c_maximal": 1.5, "rows": [0.25, 3], "name": "sphere", "pass": true}',
        b'{"c_maximal": 1.5, "rows": [0.25], "name": "circle", "pass": true}',
        b'{"c_maximal": 1.5, "rows": [0.25, 3], "name": "circle", "pass": false}',
        b'not json',
    ):
        assert report_matrix.report_gap(a, other, ".json") is None


def test_csv_reports_compare_cell_by_cell():
    a = b"node,M,N\n0,1.0,2.0\n1,0.5,nan\n"
    b = b"node,M,N\n0,1.0,2.000000000001\n1,0.5,nan\n"
    assert report_matrix.report_gap(a, b, ".csv") == pytest.approx(5e-13, rel=1e-3)
    assert report_matrix.report_gap(a, b"node,M,N\n0,1.0,2.0\n", ".csv") is None  # a row fewer
    assert report_matrix.report_gap(a, b"node,M,K\n0,1.0,2.0\n1,0.5,nan\n", ".csv") is None  # a header
    assert report_matrix.report_gap(a, b"node,M,N\n0,1.0,inf\n1,0.5,nan\n", ".csv") == float("inf")


def test_report_gaps_name_the_reports_that_differ(tmp_path):
    other, tree = tmp_path / "other", tmp_path / "tree"
    for d, gap in ((other, b"1.0"), (tree, b"1.0000000000000002")):
        (d / "sub").mkdir(parents=True)
        (d / "same.json").write_bytes(b"[1]")
        (d / "sub" / "moved.json").write_bytes(b"[" + gap + b"]")
        (d / "log.txt").write_bytes(gap)
    (tree / "extra.csv").write_bytes(b"a\n")
    got = report_matrix.report_gaps(other, tree)
    assert [str(rel) for rel, _ in got] == ["extra.csv", "sub/moved.json"]
    assert got[0][1] is None and got[1][1] == pytest.approx(2.0**-52 / (1 + 2.0**-52))
