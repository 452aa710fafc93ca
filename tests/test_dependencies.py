"""The package reaches LAPACK only through numpy.linalg's public routines."""
import ast
import subprocess
import sys
from pathlib import Path

import stdar

SRC = Path(stdar.__file__).resolve().parent


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
