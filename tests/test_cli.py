import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plemelj
from plemelj.cli import DEFAULT_CONFIG, main


def _benchmark_workloads():
    """perfbench/workloads.py, loaded from its file: the benchmark's workloads and report checks."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _benchmark_workloads()
CAPS = {key: DEFAULT_CONFIG[key] for key in ("identity_cap", "cond_limit")}


def check_benchmark_reports(name, out):
    """The benchmark's own check of a job's reports, against the CLI's caps."""
    failure, _ = WORKLOADS.check_reports(WORKLOADS.WORKLOADS[name], out, CAPS)
    assert failure is None, failure


def run_cli(tmp_path, *args):
    out = str(tmp_path / "out")
    rc = main(list(args) + ["--out", out])
    return rc, out


def test_mesh_command(tmp_path, capsys):
    rc, out = run_cli(tmp_path, "--command", "mesh", "--geometry", "circle", "--N", "64")
    assert rc == 0
    assert os.path.exists(os.path.join(out, "mesh.json"))
    captured = capsys.readouterr()
    assert "passed" in captured.out


def test_mesh_validation_failure_exit_code(tmp_path, capsys):
    rc, _ = run_cli(tmp_path, "--command", "mesh", "--geometry", "deformed",
                    "--eps", "0.9", "--N", "64")
    assert rc == 2


def test_verify_single_N(tmp_path):
    rc, out = run_cli(tmp_path, "--command", "verify", "--N", "64")
    assert rc == 0
    doc = json.load(open(os.path.join(out, "verify.json")))
    assert doc["pass"]
    assert all(row["residual_N"] <= 1e-3 for row in doc["results"])


def test_verify_sweep(tmp_path):
    rc, out = run_cli(tmp_path, "--command", "verify", "--N", "64,128")
    assert rc == 0
    doc = json.load(open(os.path.join(out, "verify.json")))
    Ns = {row["N"] for row in doc["results"]}
    assert Ns == {64, 128}


def test_verify_honours_config_cond_limit(tmp_path):
    # the circle's Kerzman-Stein system is I, condition estimate 1 > 0.5
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cond_limit": 0.5}))
    rc, _ = run_cli(tmp_path, "--config", str(cfg_path), "--command", "verify", "--N", "64")
    assert rc == 3


def test_verify_honours_config_identity_cap(tmp_path):
    # the sphere's residuals decrease under refinement but sit above the default 1e-3 cap
    rc, _ = run_cli(tmp_path, "--command", "verify", "--geometry", "sphere", "--N", "42")
    assert rc == 4
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"identity_cap": 0.5}))
    rc, out = run_cli(tmp_path, "--config", str(cfg_path), "--command", "verify",
                      "--geometry", "sphere", "--N", "42")
    assert rc == 0
    assert json.load(open(os.path.join(out, "verify.json")))["pass"]


def test_no_valid_cone_exit_code(tmp_path, capsys):
    rc, _ = run_cli(tmp_path, "--command", "maximal", "--geometry", "deformed",
                    "--eps", "0.4", "--mode", "16", "--N", "64")
    assert rc == 5
    assert "no approach cone" in capsys.readouterr().err



@pytest.mark.parametrize(
    "args",
    [
        ["--command", "mobius", "--geometry", "sphere", "--N", "42"],
        ["--command", "converge", "--N", "64"],
        ["--N", "63"],
        ["--command", "mesh", "--N", "64,128"],
    ],
)
def test_invalid_input_exit_code(tmp_path, args):
    _invalid_input_message(tmp_path, args)


def _invalid_input_message(tmp_path, args, out=None):
    """stderr of the CLI run as a program, after checking that it is one line of invalid input with exit code 6."""
    # run as a program, so an uncaught exception would show its traceback on stderr
    env = dict(os.environ, PYTHONPATH=str(Path(plemelj.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "plemelj.cli", *args, "--out", str(out or tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 6
    assert proc.stderr.startswith("invalid input: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    return proc.stderr


@pytest.mark.parametrize(
    "config, message",
    [
        ("[1, 2]", "config must be a JSON object"),
        ('{"N": null}', "config 'N' must be of the kind of its default"),
        ('{"identity_cap": "big"}', "config 'identity_cap' must be"),
        ('{"cond_limit": null, "command": "szego"}', "config 'cond_limit' must be"),
        ('{"family_size": "3", "command": "maximal"}', "config 'family_size' must be"),
        ('{"seed": "x"}', "config 'seed' must be"),
        ('{"command": "nope"}', "unknown command 'nope'"),
        ('{"bogus": 1}', "unknown config key 'bogus'"),
    ],
    ids=["array", "N-null", "cap-string", "cond-null", "family-string", "seed-string", "command", "key"],
)
def test_invalid_config_exit_code(tmp_path, config, message):
    # each of these ended in a traceback (exit 1), or, for the seed, wrote
    # "x" as the report's seed (exit 0)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config)
    assert message in _invalid_input_message(tmp_path, ["--config", str(cfg_path), "--N", "64"])


@pytest.mark.parametrize(
    "config, args, message",
    [
        ('{"translation": [2.0]}', ["--command", "mobius"], "translation must have 2 components, not 1"),
        ('{"translation": [1.0, 2.0, 3.0]}', ["--command", "mobius"], "translation must have 2 components, not 3"),
        ('{"translation": [2.0]}', ["--command", "converge", "--N", "64,128"], "translation must have 2 components"),
        ('{"depth": -1}', ["--command", "limits"], "depth must be at least 1, not -1"),
        ('{"depth": 0}', ["--command", "limits"], "depth must be at least 1, not 0"),
        ('{"family_size": 0}', ["--command", "maximal"], "family_size must be at least 1, not 0"),
        ('{"family_size": -3}', ["--command", "maximal"], "family_size must be at least 1, not -3"),
        ("{}", ["--command", "converge", "--N", "64,64"], "the N sweep must strictly increase"),
        ("{}", ["--command", "verify", "--N", "128,64"], "the N sweep must strictly increase"),
    ],
    ids=["translation-1", "translation-3", "converge-translation", "depth-negative", "depth-0",
         "family-0", "family-negative", "converge-repeated", "verify-decreasing"],
)
def test_out_of_range_value_exit_code(tmp_path, config, args, message):
    # each of these ran with a broadcast translation, an empty depth sweep or
    # a fit over one mesh size (exit 0), or ended in a numpy message naming no input
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config)
    assert message in _invalid_input_message(tmp_path, ["--config", str(cfg_path), "--N", "64", *args])


def test_unreadable_config_and_unmakeable_out_exit_code(tmp_path):
    assert "No such file" in _invalid_input_message(tmp_path, ["--config", str(tmp_path / "missing.json")])
    regular = tmp_path / "file"
    regular.write_text("")
    assert "Not a directory" in _invalid_input_message(tmp_path, ["--N", "64"], out=regular / "sub")


def test_reports_are_strict_json(tmp_path):
    # a refined verify wrote its S+ + S- - I ratio, 0 / 0, as a bare NaN
    runs = [
        ["--command", command, "--geometry", geometry, "--N", N]
        for geometry, N in (("circle", "64"), ("deformed", "64"), ("sphere", "42"))
        for command in ("verify", "mobius", "szego", "decompose", "limits")
        if not (command == "mobius" and geometry == "sphere")
    ] + [["--command", "converge", "--N", "64,128"]]

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    for i, args in enumerate(runs):
        out = tmp_path / str(i)
        assert main(args + ["--out", str(out)]) in (0, 4)  # verify on sphere 42 exits 4
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("radius", ["0", "-1", "NaN"])
@pytest.mark.parametrize("geometry", ["circle", "sphere"])
def test_invalid_radius_exit_code(tmp_path, geometry, radius):
    # on the circle 0 and NaN warned before they failed (maximal with a
    # traceback) and -1 turned the normals inwards; on the sphere scipy's
    # messages leaked out.  Each is now one line of invalid input
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{"radius": {radius}}}')
    args = ["--config", str(cfg_path), "--command", "maximal", "--geometry", geometry, "--N", "42"]
    assert "radius must be a finite number above 0" in _invalid_input_message(tmp_path, args)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--eps", "nan", "eps must be a finite number"),
        ("--eps", "inf", "eps must be a finite number"),
        ("--eps", "1e300", "normals or edge length is not finite"),
        ("--mode", "0", "mode must be an integer of at least 1"),
        ("--mode", "-2", "mode must be an integer of at least 1"),
    ],
)
def test_invalid_deformation_exit_code(tmp_path, flag, value, message):
    # a non-finite or huge eps printed RuntimeWarnings before "validation
    # failed" (exit 2), and mode 0 or -2 ran silently (exit 0)
    args = ["--command", "verify", "--geometry", "deformed", "--N", "64", f"{flag}={value}"]
    assert message in _invalid_input_message(tmp_path, args)


@pytest.mark.parametrize("geometry", ["circle", "sphere"])
def test_huge_radius_exit_code(tmp_path, geometry):
    # a finite but huge radius overflowed into RuntimeWarnings, "validation
    # failed" (exit 2) and, from the mesh command, a total |sigma| of inf
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"radius": 1e300}')
    args = ["--config", str(cfg_path), "--command", "mesh", "--geometry", geometry, "--N", "64"]
    assert "normals or edge length is not finite" in _invalid_input_message(tmp_path, args)


def test_large_finite_deformation_builds(tmp_path, capsys):
    rc, _ = run_cli(tmp_path, "--command", "mesh", "--geometry", "deformed", "--N", "64", "--eps", "1e150")
    assert rc == 0
    assert "pair margin 1," in capsys.readouterr().out


def test_szego_ill_conditioned_exit_code(tmp_path, capsys):
    # the circle's Kerzman-Stein system is I, condition estimate 1 > 0.5
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"cond_limit": 0.5}))
    rc, _ = run_cli(tmp_path, "--config", str(cfg_path), "--command", "szego", "--N", "64")
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("ill-conditioned solve: ") and err.count("\n") == 1


def test_maximal_does_not_import_scipy_stats(tmp_path):
    # the cone samples' Halton draw is computed in numpy; importing
    # scipy.stats would cost a fresh maximal or limits run about a second.
    # linsolve imports scipy.linalg on first use, so maximal, mesh and mobius
    # on a curve, which take no dense solve, load none of scipy.linalg,
    # scipy.spatial or scipy.stats
    env = dict(os.environ, PYTHONPATH=str(Path(plemelj.__file__).parents[1]))
    runs = [
        f"main(['--command', {command!r}, '--geometry', 'circle', '--N', '64', '--out', {str(tmp_path / command)!r}])"
        for command in ("maximal", "mesh", "mobius")
    ]
    code = (
        "import sys; from plemelj.cli import main; "
        f"rc = [{', '.join(runs)}]; "
        "print(*rc, *(name in sys.modules for name in ('scipy.stats', 'scipy.linalg', 'scipy.spatial')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.stdout.split()[-6:] == ["0", "0", "0", "False", "False", "False"]


def test_sphere_runs_do_not_import_scipy_spatial(tmp_path):
    # make_sphere sums its Voronoi areas from the icosahedral faces, so a
    # sphere run loads no convex hull code
    env = dict(os.environ, PYTHONPATH=str(Path(plemelj.__file__).parents[1]))
    runs = [
        f"main(['--command', {command!r}, '--geometry', 'sphere', '--N', '42', '--out', {str(tmp_path / command)!r}])"
        for command in ("szego", "verify")
    ]
    code = (
        "import sys; from plemelj.cli import main; "
        f"rc = [{', '.join(runs)}]; "
        "print(*rc, 'scipy.spatial' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    # verify on sphere 42 exits 4: its residuals sit above the default cap
    assert proc.stdout.split()[-3:] == ["0", "4", "False"]


def test_sphere_gmres_that_misses_its_tolerance_exits_3(tmp_path, monkeypatch, capsys):
    # a surface solve that cannot reach its tolerance is ill-conditioned, as
    # an LU beyond cond_limit is
    from plemelj import linsolve

    monkeypatch.setattr(linsolve, "GMRES_TOL", -1.0)
    rc, _ = run_cli(tmp_path, "--command", "szego", "--geometry", "sphere", "--N", "42")
    assert rc == 3
    assert "GMRES" in capsys.readouterr().err


def test_decompose_constant(tmp_path):
    rc, out = run_cli(tmp_path, "--command", "decompose", "--N", "64")
    assert rc == 0
    rows = open(os.path.join(out, "decompose.csv")).read().strip().splitlines()
    assert rows[0] == "node,f,f_plus,f_minus"
    f_plus = np.array([float(r.split(",")[2]) for r in rows[1:]])
    assert np.abs(f_plus - 1.0).max() < 1e-6


def test_limits_row_count(tmp_path):
    rc, out = run_cli(tmp_path, "--command", "limits", "--N", "64")
    assert rc == 0
    rows = open(os.path.join(out, "limits_interior.csv")).read().strip().splitlines()
    assert len(rows) == 1 + DEFAULT_CONFIG["depth"]


def test_szego_report(tmp_path):
    rc, out = run_cli(tmp_path, "--command", "szego", "--N", "64")
    assert rc == 0
    doc = json.load(open(os.path.join(out, "szego.json")))
    assert doc["condition_estimate"] <= 100
    assert doc["idempotence_residual"] < 1e-6


def test_maximal_report(tmp_path):
    # the benchmark's maximal-circle-64 job shape, with its report checks
    rc, out = run_cli(tmp_path, "--command", "maximal", "--N", "64")
    assert rc == 0
    check_benchmark_reports("maximal-circle-64", out)
    rows = open(os.path.join(out, "maximal.csv")).read().strip().splitlines()
    assert rows[0] == "node,M,N,cotlar_ratio"
    assert len(rows) == 65


def test_mobius_report(tmp_path):
    rc, out = run_cli(tmp_path, "--command", "mobius", "--N", "64")
    assert rc == 0
    doc = json.load(open(os.path.join(out, "mobius.json")))
    checks = {c["check"]: c for c in doc["checks"]}
    assert checks["kernel_intertwining"]["operative_reading"] is not None
    assert checks["isometry"]["gap_refined"] < checks["isometry"]["gap"]


def test_converge_orders(tmp_path):
    rc, out = run_cli(tmp_path, "--command", "converge", "--N", "64,128")
    assert rc == 0
    doc = json.load(open(os.path.join(out, "converge.json")))
    orders = doc["fitted_order"]
    assert orders["C^2 - I/4"] == "exact"
    assert isinstance(orders["isometry_gap"], float) and orders["isometry_gap"] >= 1.5


def test_determinism_byte_identical(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    for out in (out1, out2):
        assert main(["--command", "maximal", "--N", "64", "--seed", "3", "--out", out]) == 0
    for name in ("maximal.json", "maximal.csv"):
        with open(os.path.join(out1, name), "rb") as f1, open(os.path.join(out2, name), "rb") as f2:
            assert f1.read() == f2.read()


def test_config_file_and_round_trip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = dict(DEFAULT_CONFIG)
    cfg.update({"command": "verify", "N": 64})
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 0
    # round trip unchanged
    assert json.loads(json.dumps(cfg)) == cfg


def test_parser_built_once_and_left_unchanged():
    # one parser serves every parse_args call of the process, and a parse
    # carries nothing into the next
    from plemelj.cli import _parser, parse_args

    first = parse_args(["--command", "maximal", "--N", "64", "--seed", "3"])
    second = parse_args(["--geometry", "sphere"])
    assert _parser() is _parser()
    assert (first.command, first.N, first.seed, first.geometry) == ("maximal", "64", 3, None)
    assert (second.command, second.N, second.seed, second.geometry) == (None, None, None, "sphere")


def test_config_defaults_complete():
    for field in ("command", "geometry", "N", "eps", "mode", "seed", "out"):
        assert field in DEFAULT_CONFIG
    assert "n" not in DEFAULT_CONFIG  # the geometry fixes the dimension


@pytest.mark.parametrize("name", ["verify-deformed-512", "szego-sphere-162"])
def test_benchmark_job_shapes(tmp_path, name):
    # the benchmark's verify and szego job shapes once, with its report checks
    # against the CLI's own caps (test_maximal_report runs the maximal shape)
    workload = WORKLOADS.WORKLOADS[name]
    rc, out = run_cli(tmp_path, *workload.args, "--N", str(workload.N))
    assert rc == 0
    check_benchmark_reports(name, out)


def test_report_matrix_jobs_cover_every_command_with_valid_configs(tmp_path):
    # tools/report_matrix.py's jobs: unique names, every CLI command, and
    # configs the CLI accepts, so that no compared job exits 6 on both trees
    from plemelj.cli import COMMANDS, load_config, parse_args

    path = Path(__file__).parents[1] / "tools" / "report_matrix.py"
    spec = importlib.util.spec_from_file_location("report_matrix", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    jobs = module.jobs()
    names = [name for name, _ in jobs]
    assert len(names) == len(set(names))
    assert {config["command"] for _, config in jobs} == set(COMMANDS)
    for name, config in jobs:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(config))
        cfg = load_config(parse_args(["--config", str(cfg_path)]))
        assert {key: cfg[key] for key in config} == config, name
