"""Span tracing of the plemelj layers from outside the package.

`Tracer` replaces every public function of each ``plemelj`` module, at every
name it is bound under, with a wrapper that records a span: layer (the
module that defines the function), function name, start, end, the id of the
span that caused it and the id of the job it belongs to.  A private function
that a sibling module imports (``maximal`` calls ``operators._transform_points``,
for instance) is a layer boundary too, so it is wrapped at that import only.
Methods are not wrapped; their time counts towards the calling function.

Spans stay in memory.  `layer_metrics` turns them into per-layer self times
(span time minus the time of its child spans) and counts derived from
argument and return shapes at the same boundaries.  Leaving the tracer
restores every original binding.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import pkgutil
import time

import numpy as np

PACKAGE = "plemelj"
LAYERS = ("algebra", "mesh", "operators", "hardy", "maximal", "mobius", "linsolve", "cli")
JOB_LAYER = "job"

# Function groups inside a layer.  A span of a function outside every group
# inherits the group of its parent when the parent sits in the same layer,
# so helpers such as algebra.null_tolerance count towards cauchy_kernel.
GROUPS = {
    "mesh.build": ("make_circle", "make_sphere", "make_deformed_curve", "make_flat_patch", "load_mesh"),
    "mesh.validate": ("validate_domain_manifold",),
    "mesh.region": ("region_membership_many", "region_membership"),
    "mesh.barrier": ("barrier_clearance", "barrier_clearance_floor"),
    "mesh.cone_parameters": ("cone_parameters",),
    "algebra.kernel": ("cauchy_kernel",),
    "operators.assemble": (
        "assemble_singular_cauchy",
        "assemble_kerzman_stein",
        "assemble_adjoint_cauchy",
        "plemelj_projection",
        "generic_kernel_operator",
    ),
    "operators.transform": ("cauchy_transform", "cauchy_transform_points", "_transform_points"),
    "linsolve.solve": ("solve_system",),
}
_GROUP_OF = {f"{g.split('.')[0]}.{fn}": g for g, fns in GROUPS.items() for fn in fns}


class Span:
    __slots__ = ("id", "parent", "job", "layer", "name", "start", "end", "counts", "error")

    def __init__(self, id, parent, job, layer, name, start=0.0, end=0.0, counts=None, error=False):
        self.id = id
        self.parent = parent
        self.job = job
        self.layer = layer
        self.name = name
        self.start = start
        self.end = end
        self.counts = counts
        self.error = error

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


# -- counts from argument and return shapes ------------------------------------


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _points(points, n):
    return int(np.size(points) // n)


def _count_kernel(args, kwargs, result):
    shape = np.shape(_arg(args, kwargs, 0, "z"))
    return {"kernel_evals": int(math.prod(shape[:-1]))}


def _count_points(key):
    def count(args, kwargs, result):
        mesh = _arg(args, kwargs, 1, "mesh")
        return {key: _points(_arg(args, kwargs, 0, "points"), mesh.n)}

    return count


def _count_transform(pos, name):
    def count(args, kwargs, result):
        mesh = _arg(args, kwargs, 0, "mesh")
        return {"transform_pairs": _points(_arg(args, kwargs, pos, name), mesh.n) * mesh.size}

    return count


def _count_assembly(args, kwargs, result):
    return {"matrix_id": id(result.matrix), "matrix_bytes": int(result.matrix.nbytes)}


def _count_solve(args, kwargs, result):
    matrix = _arg(args, kwargs, 0, "matrix")
    rhs = np.shape(_arg(args, kwargs, 1, "rhs"))
    return {
        "solves": 1,
        "system_dim": int(matrix.shape[0]),
        "rhs_columns": int(rhs[1]) if len(rhs) > 1 else 1,
        "cond": float(result[1]),
    }


def _count_cone_samples(args, kwargs, result):
    mesh = _arg(args, kwargs, 0, "mesh")
    per_cone = _arg(args, kwargs, 4, "samples_per_cone", 64)
    return {"cone_samples": int(mesh.size * per_cone), "skipped_samples": int(result[1])}


COUNTERS = {
    "algebra.cauchy_kernel": _count_kernel,
    "mesh.region_membership_many": _count_points("region_points"),
    "mesh.barrier_clearance": _count_points("barrier_points"),
    "operators.cauchy_transform": lambda a, k, r: {"transform_pairs": _arg(a, k, 0, "mesh").size},
    "operators.cauchy_transform_points": _count_transform(2, "points"),
    "operators._transform_points": _count_transform(2, "points"),
    "linsolve.solve_system": _count_solve,
    "maximal.nontangential_maximal": _count_cone_samples,
}
for _name in GROUPS["operators.assemble"]:
    COUNTERS[f"operators.{_name}"] = _count_assembly


# -- the tracer ------------------------------------------------------------------


def package_modules():
    """The plemelj package and every submodule, imported."""
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


def _layer_of(obj):
    owner = getattr(obj, "__module__", None) or ""
    if isinstance(obj, type) or not callable(obj) or not owner.startswith(PACKAGE + "."):
        return None
    return owner.split(".", 1)[1]


def bindings():
    """(module, name, function, layer) for every binding the tracer wraps."""
    out = []
    for mod in package_modules():
        here = mod.__name__.split(".", 1)[1] if "." in mod.__name__ else None
        for name, obj in vars(mod).items():
            layer = _layer_of(obj)
            if layer is None or name.startswith("__"):
                continue
            if name.startswith("_") and layer == here:
                continue  # private helper inside its own layer
            out.append((mod, name, obj, layer))
    return out


class Tracer:
    """Context manager that wraps the plemelj layers and records spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []
        self._job = None

    def __enter__(self):
        wrappers = {}
        for mod, name, fn, layer in bindings():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, layer)
            self._saved.append((mod, name, fn))
            setattr(mod, name, wrappers[id(fn)])
        return self

    def __exit__(self, *exc):
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()
        return False

    def _open(self, layer, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._job, layer, name)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer):
        name = fn.__name__
        counter = COUNTERS.get(f"{layer}.{name}")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def job(self, job_id):
        """Root span of one job; spans opened inside carry its id."""
        self._job = job_id
        span = self._open(JOB_LAYER, "job")
        try:
            yield span
        finally:
            self._close(span)
            self._job = None


# -- analysis ------------------------------------------------------------------------


def self_times(spans):
    """Span duration minus the time covered by its direct children, per span id."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def _groups(spans, by_id):
    group = {}
    for s in spans:  # parents precede children in the list
        g = _GROUP_OF.get(f"{s.layer}.{s.name}")
        if g is None and s.parent is not None:
            p = by_id[s.parent]
            if p.layer == s.layer:
                g = group.get(p.id)
        group[s.id] = g
    return group


PER_JOB_SUMS = (
    "mesh.region_points", "mesh.barrier_points", "algebra.kernel_evals",
    "operators.transform_pairs", "linsolve.solves", "linsolve.rhs_columns",
    "maximal.cone_samples", "maximal.skipped_samples",
)


def layer_metrics(spans):
    """Per-layer metrics, as means per job over the jobs the spans cover.

    Times are self times in seconds.  The layer self times plus
    ``trace.unattributed_s`` (time in job spans outside every layer) add
    up to ``trace.job_s``.
    """
    njobs = max(1, len({s.job for s in spans if s.job is not None}))
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    group = _groups(spans, by_id)
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for g in GROUPS:
        m[f"{g}_s"] = 0.0
    m.update({k: 0 for k in PER_JOB_SUMS})
    m["trace.job_s"] = 0.0
    m["trace.unattributed_s"] = 0.0

    kernel_under = set()  # ids of spans with a kernel evaluation beneath them
    for s in spans:
        if s.layer == "algebra" and s.name == "cauchy_kernel":
            p = s.parent
            while p is not None and p not in kernel_under:
                kernel_under.add(p)
                p = by_id[p].parent

    # each schedule entry cone_parameters evaluates starts with one barrier filter
    tries = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if s.name == "barrier_clearance" and parent is not None and parent.name == "cone_parameters":
            tries[parent.id] = tries.get(parent.id, 0) + 1
    accepted = sum(1 for i in tries if not by_id[i].error)

    matrices = set()
    assemblies = hits = 0
    system_dim = 0
    cond_max = 0.0
    for s in spans:
        t = own[s.id]
        if s.layer == JOB_LAYER:
            m["trace.job_s"] += s.end - s.start
            m["trace.unattributed_s"] += t
            continue
        m[f"{s.layer}.self_s"] += t
        if group[s.id] is not None:
            m[f"{group[s.id]}_s"] += t
        c = s.counts or {}
        for key in PER_JOB_SUMS:
            m[key] += c.get(key.split(".", 1)[1], 0)
        if "matrix_id" in c:
            matrices.add((s.job, c["matrix_id"], c["matrix_bytes"]))
            parent = by_id.get(s.parent)
            if parent is None or group[parent.id] != "operators.assemble":
                if s.id in kernel_under:
                    assemblies += 1
                else:
                    hits += 1  # an assembly that evaluates no kernel reuses a cached one
        if "system_dim" in c:
            system_dim = max(system_dim, c["system_dim"])
            if math.isfinite(c["cond"]):
                cond_max = max(cond_max, c["cond"])

    out = {k: v / njobs for k, v in m.items()}
    out["mesh.cone_tries"] = sum(tries.values()) / accepted if accepted else 0.0
    out["operators.assemblies"] = assemblies / njobs
    out["operators.cache_hits"] = hits / njobs
    out["operators.matrix_bytes"] = sum(b for _, _, b in matrices) / njobs
    out["linsolve.system_dim"] = system_dim
    out["linsolve.cond_max"] = cond_max
    samples = out["maximal.cone_samples"]
    out["maximal.usable_frac"] = 1.0 - out["maximal.skipped_samples"] / samples if samples else 0.0
    out["trace.spans"] = sum(1 for s in spans if s.layer != JOB_LAYER) / njobs
    return out

