import importlib
import pkgutil

import pytest

import sgfsim

MODULES = ["sgfsim", *(f"sgfsim.{info.name}" for info in pkgutil.iter_modules(sgfsim.__path__))]


def test_every_submodule_is_listed():
    assert {"sgfsim.protocol", "sgfsim.analytic", "sgfsim.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    # a stale __all__ entry, e.g. a deleted function still exported, fails the import
    exported = importlib.import_module(name).__all__
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
