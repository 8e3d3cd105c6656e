"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import run  # noqa: E402
from tracer import LAYERS, Span, Tracer, bindings, layer_metrics, package_modules, self_times  # noqa: E402


def _all_bindings():
    return {(m.__name__, name): obj for m in package_modules() for name, obj in vars(m).items()}


def test_smoke_every_workload_traced_and_untraced():
    assert run.smoke() == []


def test_self_time_on_synthetic_span_tree():
    spans = [
        Span(0, None, 7, "job", "job", 0.0, 10.0),
        Span(1, 0, 7, "cli", "main", 0.5, 9.5),
        Span(2, 1, 7, "hardy", "verify_identities", 1.0, 8.0),
        Span(3, 2, 7, "linsolve", "solve_system", 2.0, 5.0,
             counts={"solves": 1, "system_dim": 8, "rhs_columns": 8, "cond": 3.0}),
        Span(4, 2, 7, "operators", "assemble_singular_cauchy", 5.0, 6.5,
             counts={"matrix_id": 1, "matrix_bytes": 1024}),
        Span(5, 4, 7, "algebra", "cauchy_kernel", 5.5, 6.0, counts={"kernel_evals": 64}),
        Span(6, 5, 7, "algebra", "vector_square", 5.6, 5.7),
        Span(7, 2, 7, "operators", "plemelj_projection", 6.5, 7.0,
             counts={"matrix_id": 1, "matrix_bytes": 1024}),
    ]
    own = self_times(spans)
    assert own[2] == pytest.approx(7.0 - 3.0 - 1.5 - 0.5)
    assert own[5] == pytest.approx(0.4)
    m = layer_metrics(spans)
    assert m["hardy.self_s"] == pytest.approx(2.0)
    assert m["linsolve.solve_s"] == pytest.approx(3.0)
    assert m["operators.self_s"] == pytest.approx(1.5)
    assert m["algebra.kernel_s"] == pytest.approx(0.5)  # vector_square inherits the group
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["trace.unattributed_s"] == pytest.approx(1.0)
    layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.job_s"]) == pytest.approx(10.0)
    assert m["operators.assemblies"] == 1 and m["operators.cache_hits"] == 1
    assert m["operators.matrix_bytes"] == 1024  # the same matrix returned twice
    assert m["linsolve.solves"] == 1 and m["linsolve.system_dim"] == 8 and m["linsolve.cond_max"] == 3.0


def test_every_metric_of_benchmark_json_is_computed():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    one_job = [{"seconds": 1.0, "reason": None, "traced": False}]
    assert {m["name"] for m in spec["end_to_end"]} <= run.end_to_end(one_job, [0.5]).keys()
    assert {m["name"] for m in spec["per_layer"]} <= run.per_layer(one_job, []).keys()


def test_wrappers_wrap_every_boundary_and_restore_every_binding():
    before = _all_bindings()
    wrapped = {(m.__name__, name) for m, name, _, _ in bindings()}
    assert ("plemelj.hardy", "solve_system") in wrapped
    assert ("plemelj.maximal", "_transform_points") in wrapped
    assert ("plemelj.operators", "_transform_points") not in wrapped
    with pytest.raises(RuntimeError):
        with Tracer():
            now = _all_bindings()
            assert all(now[key] is not before[key] for key in wrapped)
            raise RuntimeError("leave the tracer by an exception")
    after = _all_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
