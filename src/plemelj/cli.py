"""Batch command-line driver.

Single-invocation commands over generated meshes: mesh export/validation,
operator-identity verification, Hardy decomposition, Szego projection,
boundary-limit studies, maximal diagnostics, Moebius checks and
convergence sweeps.  All randomness sits behind one seeded generator that
is recorded in every report; identical config and seed give byte-identical
output files (runtimes go to stderr only).

Exit codes: 0 all checks pass, 2 validation failure, 3 ill-conditioned
solve, 4 check failure, 5 no approach cone fits inside the mesh (the
maximal and limits commands need one), 6 invalid input (a node count the
geometry does not take, a command the geometry does not support, a sweep
too short); every failure ends in one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import hardy, maximal, mobius
from .linsolve import IllConditionedError
from .mesh import (
    NoValidConeError,
    ValidationFailedError,
    make_circle,
    make_deformed_curve,
    make_sphere,
    save_mesh,
    validate_domain_manifold,
)
from .operators import BoundaryFunction, l2_norm

DEFAULT_CONFIG = {
    "command": "verify",
    "geometry": "circle",
    "N": 128,
    "eps": 0.05,
    "mode": 2,
    "radius": 1.0,
    "seed": 0,
    "out": ".",
    "depth": 8,
    "family_size": 20,
    "translation": [2.0, 0.0],
    "identity_cap": 1e-3,
    "cond_limit": 1e8,
}

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ILL_CONDITIONED = 3
EXIT_CHECK_FAILED = 4
EXIT_NO_CONE = 5
EXIT_INVALID_INPUT = 6


def build_mesh(cfg, N=None):
    N = int(N if N is not None else cfg["N"])
    geom = cfg["geometry"]
    if geom == "circle":
        return make_circle(N, cfg["radius"])
    if geom == "sphere":
        return make_sphere(N, cfg["radius"])
    if geom == "deformed":
        return make_deformed_curve(N, cfg["eps"], cfg["mode"])
    raise ValueError(f"unknown geometry {geom!r}")


def _n_list(cfg):
    N = cfg["N"]
    return [int(x) for x in N] if isinstance(N, (list, tuple)) else [int(N)]


def _write_json(cfg, name, doc):
    os.makedirs(cfg["out"], exist_ok=True)
    path = os.path.join(cfg["out"], name)
    doc = {"seed": cfg["seed"], **doc}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return path


def _write_csv(cfg, name, header, rows):
    os.makedirs(cfg["out"], exist_ok=True)
    path = os.path.join(cfg["out"], name)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.16e}" if isinstance(v, float) else str(v) for v in row) + "\n")
    return path


def _test_function(mesh, seed) -> BoundaryFunction:
    return maximal.band_limited_family(mesh, 1, seed=seed)[0]


def cmd_mesh(cfg) -> int:
    mesh = build_mesh(cfg)
    report = validate_domain_manifold(mesh)
    save_mesh(mesh, os.path.join(cfg["out"], "mesh.json"))
    print(report)
    print(f"nodes: {mesh.size}, total |sigma|: {mesh.total_measure():.12g}")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_verify(cfg) -> int:
    sweep = _n_list(cfg)
    all_pass = True
    results = []
    for N in sweep:
        t0 = time.time()
        mesh = build_mesh(cfg, N)
        refine = len(sweep) == 1 and mesh.builder is not None and N <= 256
        reports = hardy.verify_identities(
            mesh, refine=refine, cap=cfg["identity_cap"], cond_limit=cfg["cond_limit"]
        )
        for rep in reports:
            all_pass &= rep.passed
            results.append({"N": N, **rep.as_dict()})
        print(f"verify N={N}: {time.time() - t0:.2f}s", file=sys.stderr)
    if len(sweep) > 1:
        # decreasing across the sweep, identity by identity
        by_name = {}
        for row in results:
            by_name.setdefault(row["identity"], []).append(row["residual_N"])
        for vals in by_name.values():
            all_pass &= all(hardy.residual_decreases(a, b) for a, b in zip(vals, vals[1:]))
    _write_json(cfg, "verify.json", {"results": results, "pass": all_pass})
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_decompose(cfg) -> int:
    mesh = build_mesh(cfg)
    f = BoundaryFunction.constant(mesh, 1.0)
    dec = hardy.decompose(f)
    from .algebra import algebra

    alg = algebra(mesh.n)
    norms = (alg.norm(g.values).tolist() for g in (dec.f, dec.f_plus, dec.f_minus))
    rows = zip(range(mesh.size), *norms)
    _write_csv(cfg, "decompose.csv", ["node", "f", "f_plus", "f_minus"], rows)
    _write_json(
        cfg,
        "decompose.json",
        {
            "residual": dec.residual,
            "exterior_sign_gap": dec.exterior_sign_gap,
            "norm_f_plus": l2_norm(dec.f_plus),
            "norm_f_minus": l2_norm(dec.f_minus),
        },
    )
    return EXIT_OK


def cmd_szego(cfg) -> int:
    mesh = build_mesh(cfg)
    f = _test_function(mesh, cfg["seed"])
    ks = hardy.kerzman_stein_factor(mesh, cfg["cond_limit"])
    p = hardy.szego_project(f, "+", cond_limit=cfg["cond_limit"])
    pp = hardy.szego_project(p, "+", cond_limit=cfg["cond_limit"])
    _write_json(
        cfg,
        "szego.json",
        {
            "N": mesh.size,
            "condition_estimate": ks.cond,
            # a small difference of O(1) vectors: its trailing digits are rounding
            "idempotence_residual": float(f"{l2_norm(pp - p):.3g}"),
            "norm_projection": l2_norm(p),
            "norm_f": l2_norm(f),
        },
    )
    return EXIT_OK


def cmd_limits(cfg) -> int:
    mesh = build_mesh(cfg)
    f = BoundaryFunction.constant(mesh, 1.0)
    out = {}
    for region in ("interior", "exterior"):
        rep = hardy.boundary_limit_test(f, region, depth=cfg["depth"])
        rows = [(k, float(rep.s_values[k]), float(rep.errors[k])) for k in range(1, len(rep.s_values))]
        _write_csv(cfg, f"limits_{region}.csv", ["k", "s_k", "l2_error"], rows)
        out[region] = {"errors": [float(e) for e in rep.errors], "floor": rep.floor_estimate}
    _write_json(cfg, "limits.json", out)
    return EXIT_OK


def cmd_maximal(cfg) -> int:
    mesh = build_mesh(cfg)
    reports = maximal.bound_diagnostics(mesh, cfg["family_size"], seed=cfg["seed"])
    rep = reports[0]
    rows = [
        (i, float(rep.maximal[i]), float(rep.nontangential[i]), float(rep.cotlar_ratio[i]))
        for i in range(mesh.size)
    ]
    _write_csv(cfg, "maximal.csv", ["node", "M", "N", "cotlar_ratio"], rows)
    _write_json(
        cfg,
        "maximal.json",
        {
            "N": mesh.size,
            "c_maximal": max(r.c_maximal for r in reports),
            "c_nontangential": max(r.c_nontangential for r in reports),
            "cotlar_finite": bool(all(np.isfinite(r.cotlar_ratio).all() for r in reports)),
        },
    )
    return EXIT_OK


def cmd_mobius(cfg) -> int:
    mesh = build_mesh(cfg)
    if mesh.n != 2:
        raise ValueError("Moebius checks run on curve geometries (n = 2)")
    a = np.asarray(cfg["translation"], dtype=complex)
    gaps = []  # (isometry gap, covariance gap) on the mesh and on its refinement
    for m in (mesh, mesh.refine()):
        km = mobius.kelvin_map(m, a)
        f, g = _test_function(m, cfg["seed"]), _test_function(m, cfg["seed"] + 1)
        gaps.append((mobius.isometry_check(f, km)["relative_gap"], mobius.covariance_check(f, g, km)[2]))
    (iso, cov), (iso2, cov2) = gaps
    inter = mobius.kernel_intertwining_check(mesh.n, a, seed=cfg["seed"])
    doc = {
        "checks": [
            {"check": "isometry", "N": mesh.size, "gap": iso,
             "gap_refined": iso2, "operative_reading": None},
            {"check": "covariance", "N": mesh.size, "gap": cov,
             "gap_refined": cov2, "operative_reading": None},
            {"check": "kernel_intertwining", "N": mesh.size,
             "gap": min(inter["gaps"].values()), "gap_refined": None,
             "operative_reading": inter["operative_reading"],
             "all_gaps": inter["gaps"]},
        ]
    }
    _write_json(cfg, "mobius.json", doc)
    ok = iso2 < iso and cov2 < cov and inter["operative_reading"] is not None
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_converge(cfg) -> int:
    sweep = _n_list(cfg)
    if len(sweep) < 2:
        raise ValueError("convergence sweep needs at least 2 mesh sizes")
    columns = {}
    for N in sweep:
        t0 = time.time()
        mesh = build_mesh(cfg, N)
        for rep in hardy.verify_identities(mesh, refine=False, cond_limit=cfg["cond_limit"]):
            columns.setdefault(rep.identity, []).append(rep.residual)
        a = np.asarray(cfg["translation"], dtype=complex)
        if mesh.n == 2:
            km = mobius.kelvin_map(mesh, a)
            iso = mobius.isometry_check(_test_function(mesh, cfg["seed"]), km)
            columns.setdefault("isometry_gap", []).append(iso["relative_gap"])
        print(f"converge N={N}: {time.time() - t0:.2f}s", file=sys.stderr)
    orders = {}
    logN = np.log(np.asarray(sweep, dtype=float))
    for name, vals in columns.items():
        v = np.asarray(vals)
        if np.max(v) <= hardy.RESIDUAL_FLOOR:
            orders[name] = "exact"
        else:
            slope = np.polyfit(logN, np.log(np.maximum(v, 1e-300)), 1)[0]
            orders[name] = float(-slope)
    rows = [tuple([N] + [float(columns[k][i]) for k in sorted(columns)]) for i, N in enumerate(sweep)]
    _write_csv(cfg, "converge.csv", ["N"] + sorted(columns), rows)
    _write_json(cfg, "converge.json", {"sweep": sweep, "fitted_order": orders})
    return EXIT_OK


COMMANDS = {
    "mesh": cmd_mesh,
    "verify": cmd_verify,
    "decompose": cmd_decompose,
    "szego": cmd_szego,
    "limits": cmd_limits,
    "maximal": cmd_maximal,
    "mobius": cmd_mobius,
    "converge": cmd_converge,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process (parsing leaves it unchanged)."""
    p = argparse.ArgumentParser(prog="plemelj", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", help="JSON config file; flags override its entries")
    p.add_argument("--command", choices=sorted(COMMANDS))
    p.add_argument("--geometry", choices=["circle", "sphere", "deformed"])
    p.add_argument("--N", help="node count, or comma-separated sweep list")
    p.add_argument("--eps", type=float, help="deformation amplitude")
    p.add_argument("--mode", type=int, help="deformation mode number")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")
    return p


def parse_args(argv=None):
    return _parser().parse_args(argv)


def load_config(args) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if args.config:
        with open(args.config) as fh:
            cfg.update(json.load(fh))
    for name in ("command", "geometry", "eps", "mode", "seed", "out"):
        val = getattr(args, name)
        if val is not None:
            cfg[name] = val
    if args.N is not None:
        cfg["N"] = [int(x) for x in args.N.split(",")] if "," in args.N else int(args.N)
    return cfg


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cfg = load_config(args)
        os.makedirs(cfg["out"], exist_ok=True)
        return COMMANDS[cfg["command"]](cfg)
    except ValidationFailedError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IllConditionedError as exc:
        print(f"ill-conditioned solve: {exc}", file=sys.stderr)
        return EXIT_ILL_CONDITIONED
    except NoValidConeError as exc:
        print(f"no approach cone: {exc}", file=sys.stderr)
        return EXIT_NO_CONE
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
