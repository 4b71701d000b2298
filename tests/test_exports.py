"""Every name a `projmet` module lists in `__all__` exists in it.

`import projmet` does not read `__all__`, so a name left there after its
definition is deleted would only fail a `from projmet.<module> import *`.
And a fresh `import projmet.cli` loads neither sympy nor numpy.
"""

import importlib
import pkgutil
import subprocess
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
