"""Every public function of the package is reached from the CLI or verify.

The five commands run on small inputs with a call-event tracer installed;
every function, method and property named through a module's ``__all__``
must have been called, apart from the few listed below with the reason each
one stays.  Each public name has one home, the one module whose ``__all__``
names it, no module imports another module's private name, and
``import curvedwigner.cli`` loads only the modules the grid commands run.
"""

import ast
import collections
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import curvedwigner
from curvedwigner.cli import main

KEPT_UNREACHED = {
    "curvedwigner.artifacts.read_csv": "reader of the CSV artifact format",
    "curvedwigner.artifacts.read_pgm": "reader of the PGM artifact format",
}


def _code(member):
    """Code object of a function, method or property, else None."""
    for attr in ("fget", "func", "__func__"):  # property, cached_property, static/classmethod
        member = getattr(member, attr, member)
    return getattr(member, "__code__", None)


def submodules():
    return [importlib.import_module(info.name) for info in
            pkgutil.iter_modules(curvedwigner.__path__, "curvedwigner.")]


def public_functions():
    """{qualified name: code object} of every function named in an __all__
    list, and of the public methods and properties of every class named
    there."""
    found = {}
    for module in submodules():
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj.__code__
            elif inspect.isclass(obj) and obj.__module__.startswith("curvedwigner."):
                for attr, member in vars(obj).items():
                    code = _code(member)
                    if not attr.startswith("_") and code is not None:
                        found[f"{obj.__module__}.{obj.__qualname__}.{attr}"] = code
    return found


def test_every_public_function_is_reached(tmp_path):
    out = str(tmp_path / "out")
    small = ["--n", "0", "--out", out]
    runs = [["eigen", "--s", "4", "--out", out],
            ["wavefun", "--s", "4", "--grid", "0:1:5,0:2:5", *small],
            ["wigner", "--s", "4", "--grid", "0:1:5,0:2:5", *small],
            ["figure1", "--grid", "0:4:5,0:4:5", *small],
            ["verify", "--out", out]]
    called = set()

    def tracer(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = [main(argv) for argv in runs]
    finally:
        sys.settrace(previous)
    # verify exits 1 on its failing criterion; it still ran every criterion
    assert codes[:4] == [0, 0, 0, 0] and codes[4] in (0, 1)
    functions = public_functions()
    assert set(KEPT_UNREACHED) <= set(functions)
    unreached = sorted(name for name, code in functions.items() if code not in called)
    assert unreached == sorted(KEPT_UNREACHED)


def test_every_public_name_has_one_home():
    homes = collections.Counter(name for module in submodules()
                                for name in getattr(module, "__all__", ()))
    assert [name for name, count in homes.items() if count > 1] == []
    assert not hasattr(curvedwigner, "__all__")


def private_imports(source: str) -> list[str]:
    """Every ``_name`` (dunder names excepted) that ``source`` imports from
    another module of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "curvedwigner"):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_module_imports_a_private_name():
    package = Path(curvedwigner.__file__).parent
    hits = {path.name: private_imports(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: found for name, found in hits.items() if found} == {}


def test_cli_loads_only_the_modules_it_runs():
    # geometry and verify load only when verify runs, and the package binds
    # no function or class of its own: each name is imported from its module
    script = ("import inspect, json, sys\n"
              "import curvedwigner.cli\n"
              "package = sys.modules['curvedwigner']\n"
              "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'curvedwigner'),\n"
              "                  sorted(k for k, v in vars(package).items()\n"
              "                         if inspect.isfunction(v) or inspect.isclass(v))]))\n")
    src = str(Path(curvedwigner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    loaded, bound = json.loads(out.stdout)
    assert loaded == ["curvedwigner"] + [f"curvedwigner.{m}" for m in (
        "artifacts", "cli", "errors", "oscillator", "quadrature", "sampling", "specfun", "wigner")]
    assert bound == []
