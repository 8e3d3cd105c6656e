"""Digest the reports of a fixed matrix of CLI jobs, to show that a change keeps them byte for byte.

Each job runs ``python -m plemelj.cli`` in its own subprocess with
OPENBLAS_NUM_THREADS set to ``--threads`` (default 1), on the sources of the
tree given (default: this repository), and writes into a fresh directory.  One line is printed per
job with its exit code, then one line per report file, per stdout and per
stderr with its sha256; the stderr lines that carry wall times are dropped
first.  Run it on two trees and diff the outputs:

    python3 tools/report_matrix.py /path/to/other/tree > before.txt
    python3 tools/report_matrix.py > after.txt
    diff before.txt after.txt

and again with ``--threads 2``, the BLAS threads the benchmark runs with on
a two-core machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CURVE_COMMANDS = ("mesh", "verify", "decompose", "szego", "limits", "maximal", "mobius")
SURFACE_COMMANDS = ("mesh", "verify", "decompose", "szego", "limits", "maximal")
TIMING = re.compile(r"^(verify|converge) N=\d+: [0-9.]+s$")


def jobs():
    """(name, config) of the 33 jobs: every command on small curves and spheres, sweeps, and larger meshes."""
    out = []
    for geometry in ("circle", "deformed"):
        out += [(f"{c}-{geometry}-64", {"command": c, "geometry": geometry, "N": 64}) for c in CURVE_COMMANDS]
    for N in (42, 162):
        out += [(f"{c}-sphere-{N}", {"command": c, "geometry": "sphere", "N": N}) for c in SURFACE_COMMANDS]
    out += [
        ("converge-deformed-64,128", {"command": "converge", "geometry": "deformed", "N": [64, 128]}),
        ("converge-sphere-42,162", {"command": "converge", "geometry": "sphere", "N": [42, 162]}),
        ("verify-deformed-512", {"command": "verify", "geometry": "deformed", "N": 512}),
        ("mobius-sphere-42", {"command": "mobius", "geometry": "sphere", "N": 42}),
        ("maximal-sphere-162-r1.25", {"command": "maximal", "geometry": "sphere", "N": 162, "radius": 1.25}),
        ("maximal-circle-128-r0.8", {"command": "maximal", "geometry": "circle", "N": 128, "radius": 0.8}),
        ("limits-sphere-642", {"command": "limits", "geometry": "sphere", "N": 642}),
    ]
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(tree: Path, work: Path, name: str, config: dict, threads: int) -> list:
    """Run one job in work/name with threads BLAS threads and return its digest lines."""
    out = work / name
    out.mkdir()
    (work / f"{name}.json").write_text(json.dumps({**config, "out": str(out)}))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "plemelj.cli", "--config", str(work / f"{name}.json")],
        capture_output=True, env=env, cwd=work,
    )
    stderr = b"".join(
        line for line in proc.stderr.splitlines(keepends=True) if not TIMING.match(line.decode(errors="replace").strip())
    )
    lines = [f"{name} exit {proc.returncode}", f"{name} stdout {sha256(proc.stdout)}", f"{name} stderr {sha256(stderr)}"]
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        lines.append(f"{name} {path.relative_to(out)} {sha256(path.read_bytes())}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("tree", nargs="?", default=Path(__file__).resolve().parents[1], type=Path,
                   help="source tree whose src/ is run (default: this repository)")
    p.add_argument("--threads", type=int, default=1, help="OPENBLAS_NUM_THREADS of every job (default: 1)")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        for name, config in jobs():
            for line in run(args.tree.resolve(), Path(work), name, config, args.threads):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
