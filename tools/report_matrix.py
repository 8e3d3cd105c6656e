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
if any job differs.  Under a differing job one ``=`` line per differing JSON
or CSV report gives the largest relative difference over its numbers, or
says "structure differs" when keys, strings or row counts differ (as it does
for the job when the exit codes differ), so that a move at rounding is
measured.  Run it at ``--threads 2`` too, the BLAS threads the benchmark
runs with on a two-core machine.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
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


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _gap(a, b):
    """Largest relative difference over the numbers of two parsed reports; None when their structure differs."""
    if _is_number(a) and _is_number(b):
        if a == b or (a != a and b != b):  # equal, or both NaN
            return 0.0
        finite = all(abs(x) != float("inf") and x == x for x in (a, b))
        return abs(a - b) / max(abs(a), abs(b)) if finite else float("inf")
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        pairs = [(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        pairs = list(zip(a, b))
    else:
        return 0.0 if type(a) is type(b) and a == b else None
    gaps = [_gap(x, y) for x, y in pairs]
    return None if None in gaps else max(gaps, default=0.0)


def _parse(data: bytes, suffix: str):
    """A JSON report as parsed, a CSV report as its rows with every cell that reads as a float made one."""
    text = data.decode()
    if suffix == ".json":
        return json.loads(text)
    rows = []
    for row in csv.reader(io.StringIO(text)):
        cells = []
        for cell in row:
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return rows


def report_gap(a: bytes, b: bytes, suffix: str):
    """Largest relative difference over the numbers of two JSON or CSV reports; None when their structure differs."""
    try:
        return _gap(_parse(a, suffix), _parse(b, suffix))
    except ValueError:  # not JSON, or not text
        return None


def report_gaps(other: Path, tree: Path) -> list:
    """(report, gap) for every JSON or CSV report whose bytes differ between two output directories.

    gap is report_gap's, None when the structure differs or the report is in one directory only.
    """
    out = []
    files = {p.relative_to(d) for d in (other, tree) for p in d.rglob("*") if p.is_file()}
    for rel in sorted(f for f in files if f.suffix in (".json", ".csv")):
        a, b = (d / rel for d in (other, tree))
        if not (a.is_file() and b.is_file()):
            out.append((rel, None))
        elif a.read_bytes() != b.read_bytes():
            out.append((rel, report_gap(a.read_bytes(), b.read_bytes(), rel.suffix)))
    return out


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
                print(*(f"< {line}" for line in other), *(f"> {line}" for line in lines), sep="\n")
                if other[0] != lines[0]:  # the exit codes
                    print(f"= {name} structure differs (exit codes)")
                for rel, gap in report_gaps(Path(work, "compare", name), Path(work, "tree", name)):
                    print(f"= {name} {rel}", "structure differs" if gap is None else f"largest relative difference {gap:.3g}")
                sys.stdout.flush()
    if args.compare is not None:
        print(f"{differ} of {len(jobs())} jobs differ at {args.threads} BLAS thread(s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
