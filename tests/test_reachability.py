"""Every public function of the package is reached from the CLI or verify.

The five commands run on small inputs with a call-event tracer installed;
every function, method and property named through a module's ``__all__``
must have been called, apart from the few listed below with the reason each
one stays.
"""

import importlib
import inspect
import pkgutil
import sys
import warnings

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


def public_functions():
    """{qualified name: code object} of every function named in an __all__
    list, and of the public methods and properties of every class named
    there."""
    found = {}
    modules = [curvedwigner] + [importlib.import_module(info.name) for info in
                                pkgutil.iter_modules(curvedwigner.__path__, "curvedwigner.")]
    for module in modules:
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
