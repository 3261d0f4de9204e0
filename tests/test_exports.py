"""Every name a module exports must exist, so `from scsnet.<mod> import *` works."""

import importlib
import pkgutil

import pytest

import scsnet

MODULES = sorted(m.name for m in pkgutil.iter_modules(scsnet.__path__))


def test_modules_found():
    assert {"analytic", "cli", "montecarlo", "network", "numerics"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"scsnet.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", ["network", "numerics", "analytic", "montecarlo"])
def test_package_exports_each_module_all(name):
    # the package republishes each module's __all__, as the same objects
    module = importlib.import_module(f"scsnet.{name}")
    wrong = [n for n in module.__all__
             if getattr(scsnet, n, None) is not getattr(module, n)]
    assert wrong == []
