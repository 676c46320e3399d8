"""Checks over the package's own source."""
import ast
import symtable
from pathlib import Path

import pytest

import tfsep

MODULES = sorted(p for p in Path(tfsep.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _read_below(table, name: str, as_global: bool) -> bool:
    """Whether a scope nested in `table` reads `name` from table's binding: as
    a global (table is the module) or as a free variable (table is a function,
    and no function in between binds the name itself)."""
    for child in table.get_children():
        sym = {s.get_name(): s for s in child.get_symbols()}.get(name)
        if sym is not None and sym.is_referenced() and (
                sym.is_global() if as_global else sym.is_free()):
            return True
        hidden = not as_global and sym is not None and sym.is_local() \
            and child.get_type() == "function"
        if not hidden and _read_below(child, name, as_global):
            return True
    return False


def _unused_imports(source: str) -> dict[str, int]:
    """The imported names that no code reads, with the line of their import.

    A read counts only where the name resolves to the import (symtable's
    scopes): a local of the same name in a function, comprehension or lambda
    is another variable. Names in annotations count as reads; they come from
    the AST, because under `from __future__ import annotations` symtable does
    not record them.
    """
    tree = ast.parse(source)
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation is not None]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.returns]
    annotated = {n.id for a in annotations for n in ast.walk(a) if isinstance(n, ast.Name)}
    lines = {alias.asname or alias.name.split(".")[0]: node.lineno
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names}
    unused = {}
    tables = [symtable.symtable(source, "<module>", "exec")]
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        for sym in table.get_symbols():
            name = sym.get_name()
            if (sym.is_imported() and name in lines and not sym.is_referenced()
                    and name not in annotated
                    and not _read_below(table, name, table.get_type() == "module")):
                unused[name] = lines[name]
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    """Only __init__.py imports names to re-export them; anywhere else an
    unused import is left over from code that was removed."""
    assert _unused_imports(path.read_text()) == {}


_HEADER = "from __future__ import annotations\nimport numpy as np\nfrom .signal import pad\n"


@pytest.mark.parametrize("body, unused", [
    # an unused import whose name is also a function's local
    ("def f(x):\n    pad = x\n    return pad\n", {"pad": 3, "np": 2}),
    # ... or a comprehension's or a lambda's variable
    ("ys = [pad for pad in range(3)]\nf = lambda pad: pad\n", {"pad": 3, "np": 2}),
    # a nested function reading the enclosing function's local of that name
    ("def f():\n    pad = 1\n    def g():\n        return pad\n    return g\n",
     {"pad": 3, "np": 2}),
    # reads as globals: module level, a function, a nested function, a class body
    ("x = pad\ndef f():\n    def g():\n        return np\n    return g\n", {}),
    ("class C:\n    y = pad\n    def m(self):\n        return np.pi\n", {}),
    # names only in annotations are read
    ("def f(x: np.ndarray) -> pad:\n    return x\nclass C:\n    y: pad\n", {}),
    # a function's own import: read in it or in a nested scope, or not at all
    ("def f():\n    import json\n    return [json for _ in ()]\n", {"pad": 3, "np": 2}),
    ("def f():\n    import json\n    return 1\n", {"pad": 3, "np": 2, "json": 5}),
], ids=["function-local", "comprehension-and-lambda", "enclosing-local", "global-reads",
        "class-body", "annotations", "function-import-read", "function-import-unread"])
def test_unused_import_check_follows_scopes(body, unused):
    assert _unused_imports(_HEADER + body) == unused


def _library_fft_lines(source: str) -> list[int]:
    """The lines that import scipy or numpy.fft, or read `np.fft` or `numpy.fft`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            modules = []
        if any(m.split(".")[0] == "scipy" or (m + ".").startswith("numpy.fft.") for m in modules) \
                or (isinstance(node, ast.Attribute) and node.attr == "fft"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            lines.append(node.lineno)
    return sorted(lines)


def test_package_uses_no_library_transforms():
    """The FFT, the transforms and the resampler are this package's own:
    numpy.fft and scipy serve the tests as oracles, never the package."""
    hits = {path.name: lines for path in MODULES + [Path(tfsep.__file__)]
            if (lines := _library_fft_lines(path.read_text()))}
    assert hits == {}


@pytest.mark.parametrize("source, lines", [
    ("import numpy as np\nx = np.fft.rfft([1.0])\n", [2]),
    ("import numpy\nfrom numpy import fft\nx = numpy.fft\n", [2, 3]),
    ("import numpy.fft\nfrom numpy.fft import rfft\n", [1, 2]),
    ("import scipy.signal\nfrom scipy import fft\n", [1, 2]),
    # the package's own fft, and numpy's other modules, are not numpy.fft
    ("import numpy as np\nfrom . import fourier\nfrom .fourier import fft\n"
     "x = fourier.fft(np.linalg.norm([1.0]))\n", []),
], ids=["np-fft-read", "numpy-fft-from-import", "numpy-fft-import", "scipy", "own-fft"])
def test_library_fft_check_finds_each_form(source, lines):
    assert _library_fft_lines(source) == lines
