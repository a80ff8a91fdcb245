import ast
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


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    # the unused-import lint, as an AST walk; a line marked "# noqa: F401" is exempt
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
        noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in () if future or noqa else node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    # a name only assigned or deleted is not used
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unused = set(imported) - used - set(module.__all__)
    assert not unused, sorted((imported[n], n) for n in unused)
