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


def test_every_private_name_is_read():
    # a module-level private function, class or assignment that no module of the
    # package reads is left over from code that went
    trees = {}
    for name in MODULES:
        with open(importlib.import_module(name).__file__, encoding="utf-8") as fh:
            trees[name] = ast.parse(fh.read())
    defined = {}
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for private in (n for n in names if n.startswith("_") and not n.startswith("__")):
                defined[private] = (name, node.lineno)
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    orphans = sorted((*where, private) for private, where in defined.items() if private not in read)
    assert not orphans, orphans
