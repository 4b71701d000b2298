"""Every name a `projmet` module lists in `__all__` exists in it.

`import projmet` does not read `__all__`, so a name left there after its
definition is deleted would only fail a `from projmet.<module> import *`.
"""

import importlib
import pkgutil

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
