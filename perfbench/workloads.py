"""The benchmark's workloads: batches of plemelj CLI jobs and their report checks.

Each job is one CLI invocation with its own mesh.  Its geometry varies with
the workload seed in a property that leaves the work per job unchanged (the
deformation amplitude of the deformed curve, the radius of the circle and
the sphere), and its ``--seed`` varies too, so no job can reuse the result of
the one before.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple           # CLI flags besides --N, --seed, --out and --config
    N: int
    smoke_N: int
    vary: str             # "eps" (deformation amplitude) or "radius"
    reports: tuple        # report files the job writes
    smoke_config: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-deformed-512",
            why="headline verify on the complex curve: dense residual products (hardy), LU and 2048-column solve (linsolve)",
            args=("--command", "verify", "--geometry", "deformed", "--mode", "2"),
            N=512,
            smoke_N=64,
            vary="eps",
            reports=("verify.json",),
        ),
        Workload(
            name="maximal-circle-64",
            why="the only job where region classification (mesh), off-boundary transforms and maximal do real work",
            args=("--command", "maximal", "--geometry", "circle"),
            N=64,
            smoke_N=64,
            vary="radius",
            reports=("maximal.json", "maximal.csv"),
            smoke_config={"family_size": 2},
        ),
        Workload(
            name="szego-sphere-162",
            why="n = 3 path: 8x8 blocks, punctured rule, Python-loop Richardson diagonal, two LU solves, cached A and S+",
            args=("--command", "szego", "--geometry", "sphere"),
            N=162,
            smoke_N=42,
            vary="radius",
            reports=("szego.json",),
        ),
    )
}


@dataclass(frozen=True)
class Job:
    workload: Workload
    index: int
    seed: int             # the job's --seed
    value: float          # its deformation amplitude or radius
    smoke: bool = False

    def argv(self, out_dir: str) -> list[str]:
        """CLI arguments; writes the job's config file into out_dir."""
        w = self.workload
        config = dict(w.smoke_config) if self.smoke else {}
        argv = list(w.args) + ["--N", str(w.smoke_N if self.smoke else w.N), "--seed", str(self.seed)]
        if w.vary == "eps":
            argv += ["--eps", repr(self.value)]
        else:
            config["radius"] = self.value
        if config:
            path = os.path.join(out_dir, "config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv += ["--config", path]
        return argv + ["--out", out_dir]


def jobs(workload: Workload, seed: int, smoke: bool = False):
    """Endless stream of jobs drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    index = 0
    while True:
        if workload.vary == "eps":
            value = 0.05 * (1.0 + rng.uniform(-0.1, 0.1))   # eps in [0.045, 0.055]
        else:
            value = float(np.exp(rng.uniform(np.log(0.8), np.log(1.25))))
        yield Job(workload, index, int(rng.integers(0, 2**31 - 1)), float(value), smoke)
        index += 1


# -- output checks ---------------------------------------------------------------


def _load(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def check_reports(workload: Workload, out_dir: str, caps: dict):
    """(failure reason or None, accuracy values) for one job's reports.

    caps holds the CLI's own ``identity_cap`` and ``cond_limit``.  The Szego
    idempotence residual is reported, never gated: on the sphere it is the
    known first-order defect, and a fix must show as a move.
    """
    missing = [r for r in workload.reports if not os.path.isfile(os.path.join(out_dir, r))]
    if missing:
        return f"missing reports {missing}", {}
    command = workload.args[1]
    if command == "verify":
        doc = _load(out_dir, "verify.json")
        residuals = [row["residual_N"] for row in doc["results"]]
        accuracy = {"hardy.residual_max": max(residuals)}
        if doc["pass"] is not True:
            return "verify.json: pass is not true", accuracy
        if not all(r <= caps["identity_cap"] for r in residuals):
            return "verify.json: a residual exceeds identity_cap", accuracy
        return None, accuracy
    if command == "maximal":
        doc = _load(out_dir, "maximal.json")
        accuracy = {"maximal.c_max": doc["c_maximal"]}
        if not (math.isfinite(doc["c_maximal"]) and math.isfinite(doc["c_nontangential"])):
            return "maximal.json: non-finite constant", accuracy
        if doc["cotlar_finite"] is not True:
            return "maximal.json: cotlar_finite is not true", accuracy
        return None, accuracy
    if command == "szego":
        doc = _load(out_dir, "szego.json")
        accuracy = {"hardy.szego_idempotence": doc["idempotence_residual"]}
        cond = doc["condition_estimate"]
        if not (isinstance(cond, float) and math.isfinite(cond) and cond <= caps["cond_limit"]):
            return f"szego.json: condition estimate {cond!r} is not finite and <= cond_limit", accuracy
        return None, accuracy
    raise ValueError(f"no check for command {command!r}")


def read_reports(workload: Workload, out_dir: str) -> dict:
    """Bytes of every report, for comparing a traced job with an untraced one."""
    out = {}
    for name in workload.reports:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out
