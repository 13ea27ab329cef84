"""Every module under ``src/repro`` must be reachable from the CLI.

An optional mechanism stays only if a default experiment or a
paper-claim gate uses it.  This test enforces that mechanically: it
walks the static import graph from ``repro/__main__.py`` and every
module named in its command tables, following imports at any depth
(including the lazy ones inside functions, such as
``_load_builtin_policies`` and ``perf.parallel``), and fails on any
module the walk never reaches.  Imports guarded by ``TYPE_CHECKING``
never run, so they do not count.

A module that is deliberately reached only from tests goes in
``ALLOWED_UNREACHED`` with its reason.
"""

import ast
import os

import repro.__main__ as cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: module -> why it may stay although no command imports it
ALLOWED_UNREACHED = {
    "repro.uprocess.attacks":
        "the §4.2 attack harness, run by tests/uprocess/test_attacks.py",
}


def _all_modules():
    """Dotted name -> file path for every module under src/repro."""
    modules = {}
    root = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        package = os.path.relpath(dirpath, SRC).replace(os.sep, ".")
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            stem = filename[:-3]
            name = package if stem == "__init__" else f"{package}.{stem}"
            modules[name] = os.path.join(dirpath, filename)
    return modules


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _import_nodes(nodes):
    """Import statements anywhere in ``nodes``, minus TYPE_CHECKING ones."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from _import_nodes(node.orelse)
        else:
            yield from _import_nodes(ast.iter_child_nodes(node))


def _imported_names(name, path, modules):
    """Modules that importing ``name`` (at ``path``) executes."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    is_package = path.endswith("__init__.py")
    for node in _import_nodes([tree]):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
            continue
        base = node.module or ""
        if node.level:
            parts = name.split(".")
            keep = len(parts) - node.level + (1 if is_package else 0)
            base = ".".join(parts[:keep] + ([base] if base else []))
        yield base
        for alias in node.names:
            candidate = f"{base}.{alias.name}"
            if candidate in modules:
                yield candidate


def _with_parents(name):
    """Importing ``a.b.c`` runs ``a`` and ``a.b`` first."""
    parts = name.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def _reached(modules):
    roots = ["repro.__main__", *cli.EXPERIMENTS.values()]
    seen = set()
    stack = [parent for root in roots for parent in _with_parents(root)]
    while stack:
        name = stack.pop()
        if name in seen or name not in modules:
            continue
        seen.add(name)
        for target in _imported_names(name, modules[name], modules):
            stack.extend(_with_parents(target))
    return seen


def test_every_module_is_reached_from_the_cli():
    modules = _all_modules()
    unreached = sorted(set(modules) - _reached(modules)
                       - set(ALLOWED_UNREACHED))
    assert not unreached, (
        f"modules no `python -m repro` command imports: {unreached}; "
        "use them from an experiment or delete them")


def test_allowlist_is_not_stale():
    modules = _all_modules()
    reached = _reached(modules)
    for name in ALLOWED_UNREACHED:
        assert name in modules, f"{name} no longer exists"
        assert name not in reached, f"{name} is reached; drop its entry"
