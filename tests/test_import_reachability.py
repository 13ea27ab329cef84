"""Every module under ``src/repro`` must be reachable from the CLI, and
every definition in it must be referenced by src code.

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

The same rule one level down: every top-level function, class and
method (dunders aside) must be referenced by src code outside its own
body, as a name, an attribute, an imported name or a string constant.
Tests, examples and benchmarks do not count, so an API that only a test
calls is flagged.  Nor does a package ``__init__`` re-exporting it: its
imports and ``__all__`` strings make a name importable, not used.  A
class decorated with ``@register_policy`` is reached through the policy
registry; the definitions of a module in ``ALLOWED_UNREACHED`` share
that module's reason.  Anything else kept without a src reference goes
in ``ALLOWED_UNCALLED`` with its reason.
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

#: (module, qualified name) -> why it may stay although no src code
#: refers to it
ALLOWED_UNCALLED = {
    ("repro.hardware.machine", "Machine.total_accounting"):
        "invariant oracle (buckets sum to elapsed time), the hook for a "
        "per-step invariant checker",
    ("repro.uprocess.allocator", "RegionAllocator.check_invariants"):
        "invariant oracle (free list ordered, bytes conserved), the hook "
        "for a per-step invariant checker",
    ("repro.uprocess.callgate", "CallGate.invoke"):
        "the Listing-1 functional model; runs charge only the gate's "
        "constants, tests/uprocess/test_callgate.py checks its stages",
    ("repro.kernel.syscalls", "SyscallLayer.read_fd"):
        "the kernel-side half of the §5.2.4 descriptor-sharing "
        "demonstration",
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


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


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
    tree = _parse(path)
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


def _is_registered_policy(node):
    return isinstance(node, ast.ClassDef) and any(
        isinstance(d, ast.Name) and d.id == "register_policy"
        for d in node.decorator_list)


def _definitions(body, prefix=""):
    """``(qualified name, node)`` for every function, class and method
    in ``body``, descending into classes but not into functions."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, f"{prefix}{node.name}.")


def _reexports(tree):
    """The import statements and ``__all__`` strings of a package
    ``__init__``: they re-export names, they do not use them."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            yield from ast.walk(node)


def _referenced_names(node):
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name.split(".")[-1] for alias in node.names]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def _unreferenced(trees, packages):
    """``(module, qualified name, node)`` for every definition in
    ``trees`` (module -> AST) that no code outside its own body refers
    to; the re-exports of the ``packages`` among them do not count."""
    references = {}
    for module, tree in trees.items():
        skip = set(map(id, _reexports(tree))) if module in packages \
            else set()
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            for name in _referenced_names(node):
                references.setdefault(name, []).append((module, node.lineno))
    found = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree.body):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if all(where == module
                   and node.lineno <= line <= node.end_lineno
                   for where, line in references.get(name, ())):
                found.append((module, qualname, node))
    return found


def uncalled(trees, packages=frozenset()):
    """Unreferenced definitions that no exemption covers."""
    return sorted((module, qualname)
                  for module, qualname, node in _unreferenced(trees,
                                                              packages)
                  if module not in ALLOWED_UNREACHED
                  and not _is_registered_policy(node)
                  and (module, qualname) not in ALLOWED_UNCALLED)


def _src_trees():
    return {name: _parse(path) for name, path in _all_modules().items()}


def _src_packages():
    return {name for name, path in _all_modules().items()
            if path.endswith("__init__.py")}


def test_every_definition_has_a_src_reference():
    found = uncalled(_src_trees(), _src_packages())
    assert not found, (
        f"definitions no src code refers to: {found}; call them from src "
        "or delete them (and the tests that only exercised them)")


def stale(trees, allowed=ALLOWED_UNCALLED, packages=frozenset()):
    """Allowlist entries that no longer exist or are now referenced."""
    unreferenced = {(module, qualname)
                    for module, qualname, _ in _unreferenced(trees,
                                                             packages)}
    return sorted(set(allowed) - unreferenced)


def test_allowed_uncalled_is_not_stale():
    found = stale(_src_trees(), packages=_src_packages())
    assert not found, (
        f"allowlisted definitions that are gone or now referenced: {found}; "
        "drop their entries")


def test_the_definition_scan_sees_what_it_forbids():
    """The scans are live: of a planted module's definitions the first
    flags exactly those nothing outside their own body refers to (a
    package's re-export is no reference), and the second flags allowlist
    entries that are gone or referenced."""
    planted = ast.parse(
        "from repro.sched.policy import register_policy\n"
        "def helper():\n"
        "    return Box().used() + getattr(Box(), 'named')()\n"
        "class Box:\n"
        "    def __repr__(self):\n"
        "        return 'Box'\n"
        "    def used(self):\n"
        "        return 1\n"
        "    def named(self):\n"
        "        return 2\n"
        "    def dead(self):\n"
        "        return self.dead()\n"
        "@register_policy\n"
        "class Zoo:\n"
        "    pass\n")
    user = ast.parse("from planted import helper\nhelper()\n")
    assert uncalled({"planted": planted, "user": user}) \
        == [("planted", "Box.dead")]
    assert uncalled({"planted": planted}) \
        == [("planted", "Box.dead"), ("planted", "helper")]
    package = ast.parse("from planted import helper\n"
                        "__all__ = ['helper']\n")
    assert uncalled({"planted": planted, "pkg": package}, {"pkg"}) \
        == [("planted", "Box.dead"), ("planted", "helper")]
    # The same statements in a plain module are a use.
    assert uncalled({"planted": planted, "pkg": package}) \
        == [("planted", "Box.dead")]
    allowed = {("planted", "Box.dead"): "kept", ("planted", "Box.used"): "",
               ("planted", "Box.gone"): ""}
    assert stale({"planted": planted, "user": user}, allowed) \
        == [("planted", "Box.gone"), ("planted", "Box.used")]
