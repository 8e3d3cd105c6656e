#!/usr/bin/env python3
"""Benchmark of the plemelj command line, run from the root of a source tree.

    python3 perfbench/run.py --workload verify-deformed-512 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, one table
    python3 perfbench/run.py --smoke          # every workload once, small sizes

One client runs a workload's CLI jobs in a closed loop, in this process,
through ``plemelj.cli.main``: the next job starts when the previous one has
ended, and jobs start until ``--seconds`` have passed.
Every job builds its own mesh and has its reports checked against the CLI's
own caps.  BLAS runs with at most as many threads as the process may use
cores.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` runs each job twice, untraced and then traced (see tracer.py), checks
that both write the same report bytes, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file with
the machine's provenance, every job and (traced) every span goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
SETUP_CODE = "import time, plemelj.cli, scipy.spatial, scipy.stats; print(repr(time.time()))"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads():
    """Cap BLAS threads at the cores this process may use; before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= cores:
            os.environ[var] = str(cores)


# -- provenance ----------------------------------------------------------------------


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _l3_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if _read(os.path.join(base, entry, "level")).strip() == "3":
            size = _read(os.path.join(base, entry, "size")).strip()
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
            return int(size.rstrip("KM")) * scale
    return None


def _blas_threads():
    """Thread count of every loaded OpenBLAS, asked through its own API."""
    import ctypes

    libs = sorted({line.split()[-1] for line in _read("/proc/self/maps").splitlines()
                   if "openblas" in line.rsplit("/", 1)[-1].lower()})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def _git():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=60).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                               capture_output=True, text=True, check=True, timeout=60).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return rev, bool(dirty.strip())


def provenance(seed) -> dict:
    import numpy
    import scipy

    cpu = [ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
           if ln.startswith("model name")]
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev, dirty = _git()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu[0] if cpu else platform.processor(),
        "l3_bytes": _l3_bytes(),
        "mem_total_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": rev,
        "git_dirty": dirty,
        "workload_seed": seed,
    }


# -- jobs ----------------------------------------------------------------------------


def setup_seconds() -> float:
    """Fresh interpreter to the point where a CLI job can start."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.time()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1]) - t0


def run_job(job, caps, tracer=None, keep_reports=False) -> dict:
    """Run one CLI job in this process and check its reports."""
    import plemelj.cli as cli
    from workloads import check_reports, read_reports

    out_dir = os.path.join(OUT, "jobs", f"{os.getpid()}-{job.index}-{'t' if tracer else 'u'}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    argv = job.argv(out_dir)
    gc.collect()
    log = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.job(job.index):
                    code = cli.main(argv)
    except Exception:  # a job that raises is a failed job; the run goes on
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - t0
    result = {"index": job.index, "seed": job.seed, "value": job.value, "traced": tracer is not None,
              "seconds": seconds, "exit_code": code, "accuracy": {}}
    if error is not None:
        reason = "exception: " + error.strip().splitlines()[-1]
    elif code != 0:
        reason = f"exit code {code}"
    else:
        reason, result["accuracy"] = check_reports(job.workload, out_dir, caps)
        if keep_reports and reason is None:
            result["reports"] = read_reports(job.workload, out_dir)
    result["reason"] = reason
    if reason is not None:
        print(f"job {job.index} failed: {reason}\n{error or log.getvalue()}", file=sys.stderr)
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def measure(workload, seed, seconds, traced, smoke=False):
    """Closed loop of jobs started within `seconds`; returns (job results, spans)."""
    import plemelj.cli as cli
    from tracer import Tracer
    from workloads import jobs

    caps = {k: cli.DEFAULT_CONFIG[k] for k in ("identity_cap", "cond_limit")}
    tracer = Tracer() if traced else None
    results = []
    start = time.perf_counter()
    for job in jobs(workload, seed, smoke):
        if results and time.perf_counter() - start >= seconds:
            break
        results.append(run_job(job, caps, keep_reports=traced))
        if traced:
            with tracer:
                results.append(run_job(job, caps, tracer, keep_reports=True))
            plain, again = results[-2], results[-1]
            if plain["reason"] is None and again["reason"] is None and plain["reports"] != again["reports"]:
                again["reason"] = "traced reports differ from untraced reports"
        print(f"{workload.name} job {job.index}: {results[-1]['seconds']:.3f} s "
              f"{results[-1]['reason'] or 'ok'}", file=sys.stderr)
    for r in results:
        r.pop("reports", None)
    return results, (tracer.spans if traced else [])


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def end_to_end(results, setups) -> dict:
    passed = [r["seconds"] for r in results if r["reason"] is None]
    return {
        "job_s": _median(passed or [r["seconds"] for r in results]),
        "setup_s": _median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": sum(r["reason"] is not None for r in results) / len(results),
        "job_samples": len(passed),
    }


def per_layer(results, spans) -> dict:
    from tracer import layer_metrics

    out = layer_metrics(spans)
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    for key in ("hardy.residual_max", "hardy.szego_idempotence", "maximal.c_max"):
        out[key] = _median([r["accuracy"][key] for r in traced if key in r["accuracy"]])
    out["trace.overhead_frac"] = (_median([r["seconds"] for r in traced])
                                  / _median([r["seconds"] for r in plain], 1.0) - 1.0)
    return out


def run(workload_name, seed, seconds, traced) -> dict:
    """One benchmark run; returns the result line and writes the results file."""
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workload = WORKLOADS[workload_name]
    setups = [] if traced else [setup_seconds() for _ in range(SETUP_REPEATS)]
    import plemelj.cli  # noqa: F401  -- the import a user's invocation pays
    import scipy.spatial  # noqa: F401  -- lazy imports of the sphere and cone builders
    import scipy.stats  # noqa: F401

    results, spans = measure(workload, seed, seconds, traced)
    values = per_layer(results, spans) if traced else end_to_end(results, setups)
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    failed = sum(r["reason"] is not None for r in results)
    line = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{seed}-trace{int(traced)}")
    with open(stem + ".json", "w") as fh:
        json.dump({"provenance": provenance(seed), "workload": workload.name, "seconds": seconds,
                   "setup_samples": setups, "jobs": results, "metrics": values, "result": line},
                  fh, indent=1)
    if traced:
        with open(stem + "-spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
    return line


# -- the commands ----------------------------------------------------------------------


def run_all(seed, seconds, traced) -> int:
    """Each workload in its own process; prints one table."""
    from workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        rows.append((name, json.loads(done.stdout.strip().splitlines()[-1])))
    for name, line in rows:
        print(f"{name}: attempted {line['attempted']}, failed {line['failed']}, "
              f"failed_frac {line['failed'] / line['attempted']:.3g} ratio, correct {line['correct']}")
        for metric, v in line["metrics"].items():
            print(f"  {metric:28s} {v['value']:.6g} {v['unit']}")
    return 0 if all(line["correct"] for _, line in rows) else 1


def smoke() -> list[str]:
    """Each workload once at small sizes, untraced and traced; returns problems."""
    from workloads import WORKLOADS

    problems = []
    for w in WORKLOADS.values():
        results, spans = measure(w, seed=0, seconds=0.0, traced=True, smoke=True)
        problems += [f"{w.name}: {r['reason']}" for r in results if r["reason"] is not None]
        if not spans:
            problems.append(f"{w.name}: traced job recorded no spans")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload and print one table")
    p.add_argument("--smoke", action="store_true", help="run every workload once at small sizes")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "plemelj", "cli.py")):
        print(f"perfbench: no plemelj sources under {SRC}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, SRC)
    if args.smoke:
        problems = smoke()
        print("\n".join(problems) or "smoke: every workload passed, traced and untraced")
        return 1 if problems else 0
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {sorted(WORKLOADS)}")
    line = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in line["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
