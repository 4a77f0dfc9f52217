"""Every name a module exports resolves.

The benchmark tracer wraps each name in the __all__ of every module but
cli, so a stale entry breaks a traced run.
"""
import importlib
import pkgutil

import pytest

import modelspace

MODULES = sorted(info.name for info in pkgutil.iter_modules(modelspace.__path__)
                 if info.name not in ("__main__", "cli"))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"modelspace.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
