import ast
import importlib
import pkgutil
import re
from pathlib import Path

import plemelj


def test_every_exported_name_resolves():
    # a deleted function cannot leave a stale __all__ entry behind
    for info in pkgutil.iter_modules(plemelj.__path__):
        module = importlib.import_module(f"plemelj.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_kerzman_stein_path_runs_on_one_blas():
    # scipy.linalg holds the LU; hardy's dense products go through linsolve,
    # so numpy's OpenBLAS thread pool is not woken between the LU's calls
    src = Path(plemelj.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in src.glob("*.py")}
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(trees["hardy.py"]))
    importers = {
        name
        for name, tree in trees.items()
        if any(n == "scipy.linalg" or n.startswith("scipy.linalg.") for n in _imported_names(tree))
    }
    assert importers == {"linsolve.py"}


def test_maximal_job_runs_on_one_blas():
    # a maximal job's dense products are numpy's @ alone: maximal imports
    # nothing from linsolve, whose matmul runs on scipy's OpenBLAS, and no
    # operators function that maximal reaches (the kernel sums at points,
    # the family products, the assembly) calls linsolve; two thread pools in
    # one job fight over the cores
    src = Path(plemelj.__file__).parent
    trees = {name: ast.parse((src / name).read_text()) for name in ("maximal.py", "operators.py")}
    imported = set(_imported_names(trees["maximal.py"])) | {
        alias.name for node in ast.walk(trees["maximal.py"]) if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert not any("linsolve" in name.split(".") for name in imported)
    functions = {node.name: node for node in trees["operators.py"].body if isinstance(node, ast.FunctionDef)}
    linsolve = {
        alias.asname or alias.name
        for node in trees["operators.py"].body
        if isinstance(node, ast.ImportFrom) and node.module == "linsolve"
        for alias in node.names
    }
    assert "matmul" in linsolve
    reached, todo = set(), sorted(imported & set(functions))
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            refs = set(_references(functions[name]))
            assert not refs & linsolve, (name, refs & linsolve)
            todo += sorted(refs & set(functions))
    assert {"_kernel_rows", "_transform_blocks", "_truncated_blocks", "_spinor_norms", "_apply_family"} <= reached


def _readme_python_blocks():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", readme, re.S)


def _references(node, skip=None):
    for sub in ast.walk(node):
        name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else None
        if name is not None and name != skip:
            yield name


def test_kernel_sums_stay_on_spinor_blocks():
    # every weighted kernel sum in operators is a product with spinor blocks
    # (_kernel_rows); none contracts Clifford left-multiplication matrices
    tree = ast.parse((Path(plemelj.__file__).parent / "operators.py").read_text())
    assert not set(_references(tree)) & {"generator_left", "left_vector_matrix", "left_matrix"}


def test_kernel_sums_are_formed_only_in_operators():
    # maximal reduces the row blocks of the operators generators to norms and
    # maxima; it builds no kernel row and no spinor column itself, and
    # operators calls back into no maximal function
    src = Path(plemelj.__file__).parent
    trees = {name: ast.parse((src / name).read_text()) for name in ("maximal.py", "operators.py")}
    kernel = {"_kernel_rows", "_cauchy_rows", "_spinor_rows", "null_differences", "null_coordinates", "_to_spinor"}
    imported = {name.rsplit(".", 1)[-1] for name in _imported_names(trees["maximal.py"])}
    assert not (set(_references(trees["maximal.py"])) | imported) & kernel
    maximal_functions = {node.name for node in trees["maximal.py"].body if isinstance(node, ast.FunctionDef)}
    assert maximal_functions and not set(_references(trees["operators.py"])) & maximal_functions


def test_node_pass_reads_the_one_kernel_pass():
    # operators walks row_blocks in one place, the kernel rows; the pass that
    # builds C and A reads its rows from there and forms no kernel value of
    # its own (it may still read validation's null-pair record)
    tree = ast.parse((Path(plemelj.__file__).parent / "operators.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def walks(node):
        return [sub for sub in ast.walk(node) if isinstance(sub, ast.Call) and "row_blocks" in _references(sub.func)]

    assert len(walks(tree)) == 1 and len(walks(functions["_kernel_rows"])) == 1
    refs = set(_references(functions["_operators"]))
    assert "_kernel_rows" in refs
    assert not refs & {"_reciprocals", "_surface_rows", "_null_rows", "null_differences"}


def test_kernel_tolerances_are_defined_only_in_algebra():
    # the Cauchy kernel's domain (its null and real tests) is decided in
    # algebra; the modules that evaluate the kernel or classify regions
    # write no tolerance of their own
    src = Path(plemelj.__file__).parent
    found = [
        (name, node.lineno, node.value)
        for name in ("mesh.py", "operators.py")
        for node in ast.walk(ast.parse((src / name).read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and node.value in (1e-12, 2e-12, 1e-14)
    ]
    assert not found, found


def test_meshes_are_built_by_the_pushforward_step():
    # every builder is a map whose normals, measure and h come from one step
    # (mesh._pushforward)
    src = Path(plemelj.__file__).parent
    callers = []
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # outer functions first, so the innermost one is kept
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                owner.update((node, getattr(fn, "name", "<lambda>")) for node in ast.walk(fn))
        callers += [
            (path.name, owner.get(node, "<module>"))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and "BoundaryMesh" in _references(node.func)
        ]
    assert callers == [("mesh.py", "_pushforward")]


def test_one_closed_curve_builder_and_one_geometry_table():
    # every closed curve goes through mesh._closed_curve, so only mesh calls
    # _pushforward, and the --geometry flag offers exactly the table's builders
    from plemelj import cli

    src = Path(plemelj.__file__).parent
    callers = {
        path.name
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and "_pushforward" in _references(node.func)
    }
    assert callers == {"mesh.py"}
    (geometry,) = (a for a in cli._parser()._actions if a.dest == "geometry")
    assert sorted(geometry.choices) == sorted(cli.GEOMETRIES)


def test_every_private_function_is_referenced():
    # every module-level function, public or private, has a caller: another
    # module of the package (not __init__), the acceptance suite or a python
    # block of the README; a function whose last caller was deleted, or that
    # only other tests call, shows up here.  Classes are exempt
    src = Path(plemelj.__file__).parent
    defined, used = set(), set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            if own is not None:
                defined.add(own)
            used.update(_references(stmt, skip=own))
    for code in [(Path(__file__).parent / "test_acceptance.py").read_text(), *_readme_python_blocks()]:
        used.update(_references(ast.parse(code)))
    orphans = sorted(defined - used)
    assert defined and not orphans, orphans


def test_readme_quick_start_runs():
    # the README's python blocks run as written; the transform at a point is
    # its coefficient array
    blocks = _readme_python_blocks()
    assert blocks
    for code in blocks:
        namespace = {}
        exec(code, namespace)
    assert namespace["value"].shape == (4,)
