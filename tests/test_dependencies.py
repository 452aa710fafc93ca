"""The package reaches LAPACK only through numpy.linalg's public routines."""
import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import stdar

SRC = Path(stdar.__file__).resolve().parent
TRACING = SRC.parents[1] / "benchmark" / "tracing.py"


def _private(dotted: str) -> bool:
    return any(part.startswith("_") and not part.startswith("__")
               for part in dotted.split("."))


def test_no_private_imports_or_raw_lapack():
    # a private module of another package, or a raw LAPACK handle, ties the
    # package to one version of that package's internals
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
                if name in ("get_lapack_funcs", "get_blas_funcs"):
                    found.append(f"{path.name}:{node.lineno} {name}()")
                continue
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if _private(n)]
    assert not found, found


def test_import_does_not_load_scipy():
    # the solver needs numpy alone: scipy is a test reference, and yaml
    # belongs to the scenario layer, which the command line imports
    code = ("import sys, stdar; "
            "print(*(m in sys.modules for m in ('scipy', 'numba', 'yaml')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC.parent,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "False", "False"]


def test_no_weak_references():
    # a result may not hinge on whether the garbage collector has freed an
    # object: no sweep is looked up through a weak reference, a cache or
    # other global state
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names
                      if n.split(".")[0] == "weakref"]
    assert not found, found


def test_no_function_level_imports():
    # every module imports at its top, so the import graph is the one its
    # header shows and has no cycle hidden in a function body
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, found


def _traced():
    """(module file, name) of each function benchmark/tracing.py wraps."""
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(f"{home}.py", attr) for _, home, attr, _ in tracing.TARGETS}


def test_no_code_without_a_reader():
    # every module-level function, class and assigned name is read in the
    # package, as a name or an attribute; what has no reader is removed.
    # Exempt are the names read from outside: the public ones, the scenario
    # layer's entry points, the command's main, dunders and the functions
    # the benchmark's tracer wraps
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    exempt = _traced() | {("scenario.py", "load_scenario"), ("scenario.py", "save_scenario"),
                          ("scenario.py", "ScenarioFile"), ("cli.py", "main")}
    unread = []
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{file}:{node.lineno} {name}" for name in names
                       if name not in read and name not in stdar.__all__
                       and (file, name) not in exempt
                       and not (name.startswith("__") and name.endswith("__"))]
    assert not unread, unread
