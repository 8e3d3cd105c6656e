"""Digest the reports of a fixed matrix of CLI jobs, to show that a change keeps them byte for byte.

Each job runs ``python -m plemelj.cli`` in its own subprocess with
OPENBLAS_NUM_THREADS set to ``--threads`` (default 1), on the sources of the
tree given (default: this repository), and writes into a fresh directory.  One line is printed per
job with its exit code, then one line per report file, per stdout and per
stderr with its sha256; the stderr lines that carry wall times are dropped
first.  To compare two trees, run

    python3 tools/report_matrix.py --compare /path/to/other/tree
    python3 tools/report_matrix.py --compare /path/to/other/tree --threads 2

which runs each job on that tree and on the tree given (default: this
repository), prints the digest lines of the jobs that differ only, each
line of the other tree marked ``<`` and of the given tree ``>``, and exits 1
if any job differs.  Run it at ``--threads 2`` too, the BLAS threads the
benchmark runs with on a two-core machine.
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
    """(name, config) of the 35 jobs: every command on small curves and spheres, sweeps, and larger meshes."""
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
        ("szego-sphere-642", {"command": "szego", "geometry": "sphere", "N": 642}),
        # the intertwining check's sampler rejects one draw at this seed
        ("mobius-deformed-64-seed34", {"command": "mobius", "geometry": "deformed", "N": 64, "seed": 34}),
    ]
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(tree: Path, work: Path, name: str, config: dict, threads: int) -> list:
    """Run one job in work/name with threads BLAS threads and return its digest lines."""
    out = work / name
    out.mkdir(parents=True)
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
    p.add_argument("--compare", type=Path, metavar="TREE",
                   help="run every job on TREE too; print only the jobs whose digests differ, and exit 1 if any do")
    args = p.parse_args(argv)
    differ = 0
    with tempfile.TemporaryDirectory() as work:
        for name, config in jobs():
            lines = run(args.tree.resolve(), Path(work, "tree"), name, config, args.threads)
            if args.compare is None:
                print(*lines, sep="\n", flush=True)
                continue
            other = run(args.compare.resolve(), Path(work, "compare"), name, config, args.threads)
            if other != lines:
                differ += 1
                print(*(f"< {line}" for line in other), *(f"> {line}" for line in lines), sep="\n", flush=True)
    if args.compare is not None:
        print(f"{differ} of {len(jobs())} jobs differ at {args.threads} BLAS thread(s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
