"""Every name a `projmet` module lists in `__all__` exists in it.

`import projmet` does not read `__all__`, so a name left there after its
definition is deleted would only fail a `from projmet.<module> import *`.
Every such name has a user in `src/projmet`, `demos/` or `perfbench/`.
And a fresh `import projmet.cli` loads neither sympy nor numpy.
"""

import ast
import importlib
import pkgutil
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import projmet

MODULES = sorted(m.name for m in pkgutil.iter_modules(projmet.__path__))


def test_every_module_is_checked():
    assert {"cli", "exprcore", "metricize", "pipeline", "projconn"} <= set(
        MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"projmet.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_importing_the_cli_loads_neither_sympy_nor_numpy():
    """A fresh `import projmet.cli` loads only the standard library: the
    polynomial arithmetic is projmet's own, and numpy is imported where the
    float cross-checks run."""
    src = Path(projmet.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import projmet.cli; "
            "print(sorted({'sympy', 'numpy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# every exported name has a user outside the tests
# ---------------------------------------------------------------------------

SRC = Path(projmet.__file__).resolve().parent
ROOT = SRC.parents[1]
# Kept with no caller: ROADMAP Direction 3 keeps parallel transport as a
# labelled float cross-check of the jet solve.
NO_USER_NEEDED = {("mobility", "parallel_transport")}


def _exported():
    """{(module, name)} for each name of each `src/projmet` `__all__`."""
    out = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                out |= {(path.stem, name)
                        for name in ast.literal_eval(node.value)}
    return out


def _dotted(node):
    """'a.b.c' for an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _global_reads(source, filename):
    """Module-level bindings read anywhere in a module, by scope: a local
    or an attribute of the same spelling is not a read, and a function or
    class reading its own name is not either."""
    top = symtable.symtable(source, filename, "exec")
    reads = {s.get_name() for s in top.get_symbols() if s.is_referenced()}
    todo = [(t, t.get_name()) for t in top.get_children()]
    while todo:
        table, owner = todo.pop()
        reads |= {s.get_name() for s in table.get_symbols()
                  if s.is_referenced() and s.is_global()
                  and s.get_name() != owner}
        todo += [(t, owner) for t in table.get_children()]
    return reads


def _used():
    """{(module, name)} that `src/projmet`, `demos/` and `perfbench/` bind
    or read: `from projmet.M import name` (or `.M` inside the package),
    `from projmet import name` through the package's re-exports, the
    attribute `name` of an imported `projmet.M`, a read of a module's own
    binding, and each (module, function) of the benchmark's SPAN_LAYERS.
    The package's `__init__.py` is not a user."""
    modules = {p.stem for p in SRC.glob("*.py")}
    init = ast.parse((SRC / "__init__.py").read_text())
    reexport = {a.asname or a.name: node.module
                for node in init.body if isinstance(node, ast.ImportFrom)
                for a in node.names if a.name != "*"}
    used = set()
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        source = path.read_text()
        tree = ast.parse(source)
        inside = path.parent == SRC
        if inside:
            used |= {(path.stem, name)
                     for name in _global_reads(source, str(path))}
        aliases = {"projmet": "projmet"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if inside and node.level == 1:
                    mod = node.module
                elif node.level == 0 and node.module and (
                        node.module == "projmet"
                        or node.module.startswith("projmet.")):
                    mod = node.module.partition(".")[2] or None
                else:
                    continue
                for a in node.names:
                    if mod is not None:
                        used.add((mod, a.name))
                    elif a.name in modules:
                        aliases[a.asname or a.name] = f"projmet.{a.name}"
                    elif a.name in reexport:
                        used.add((reexport[a.name], a.name))
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname and a.name.startswith("projmet."):
                        aliases[a.asname] = a.name
        for node in ast.walk(tree):
            name = _dotted(node) if isinstance(node, ast.Attribute) else None
            if name is None:
                continue
            head, _, rest = name.partition(".")
            if head in aliases:
                parts = f"{aliases[head]}.{rest}".split(".")
                if len(parts) == 3 and parts[0] == "projmet":
                    used.add((parts[1], parts[2]))
    spans = ast.parse((ROOT / "perfbench" / "spantrace.py").read_text())
    for node in spans.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPAN_LAYERS"
                for t in node.targets):
            for modname, fnames in ast.literal_eval(node.value).values():
                used |= {(modname.partition(".")[2], f) for f in fnames}
    return used


def test_every_exported_name_has_a_user():
    """ROADMAP aim 2: each `__all__` lists only what the CLI, the demos
    and the benchmark reach; code that only the tests run lives in
    `tests/`.  A name's definition, its `__all__` entry and the
    `projmet/__init__.py` re-export are not users."""
    unused = sorted(f"{m}.{n}" for m, n in _exported() - _used()
                    - NO_USER_NEEDED)
    assert unused == []
