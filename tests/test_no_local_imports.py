"""No ``import`` statement runs inside a function on a hot path.

A function-local ``import`` is a dict lookup plus a name binding every
time the function runs; on a per-request or per-switch path that adds up
to tens of thousands of executions per run.  This test walks the AST of
every module under ``src/repro`` (outside ``experiments/``, ``cluster/``
and ``__main__.py``, which are run assembly, not simulation paths) and
fails on any ``import`` inside a function unless the ``(module,
function)`` pair is in :data:`ALLOWED` with its reason: a circular
import, or a cold path that runs a handful of times per run.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
ROOT = os.path.join(SRC, "repro")
SKIPPED = {os.path.join(ROOT, "experiments"), os.path.join(ROOT, "cluster")}

#: (module, qualified function name) -> why its import stays local
ALLOWED = {
    ("repro.hardware.machine", "Machine.__init__"):
        "cold: runs once per machine construction",
    ("repro.obs.flight", "format_breakdown"):
        "circular: repro.experiments.common imports repro.obs.flight",
    ("repro.sched.policy", "_load_builtin_policies"):
        "circular: the zoo modules import repro.sched.policy to register",
    ("repro.baselines.caladan", "CaladanSystem._enforce_bw_cap"):
        "cold: only the first call, which builds the bandwidth meter",
    ("repro.uprocess.uproc", "UProcess.terminate"):
        "circular: repro.uprocess.threads imports repro.uprocess.uproc",
    ("repro.vessel.runtime", "VesselRuntime.sys_dlopen"):
        "cold: runs once per dlopen of a library",
}


def _modules(root=ROOT):
    """Dotted module name -> path for every scanned module."""
    modules = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__"
                             and os.path.join(dirpath, d) not in SKIPPED)
        package = os.path.relpath(dirpath, SRC).replace(os.sep, ".")
        for filename in sorted(filenames):
            if not filename.endswith(".py") or (
                    dirpath == ROOT and filename == "__main__.py"):
                continue
            stem = filename[:-3]
            name = package if stem == "__init__" else f"{package}.{stem}"
            modules[name] = os.path.join(dirpath, filename)
    return modules


def _local_imports(tree):
    """``(qualified function, line)`` for every import inside a function."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name], True)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], in_function)
            else:
                if in_function and isinstance(child,
                                              (ast.Import, ast.ImportFrom)):
                    found.append((".".join(scope), child.lineno))
                visit(child, scope, in_function)

    visit(tree, [], False)
    return found


def local_imports():
    """(module, function) -> import lines, over every scanned module."""
    found = {}
    for module, path in _modules().items():
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for function, line in _local_imports(tree):
            found.setdefault((module, function), []).append(line)
    return found


def test_no_function_local_imports_outside_the_allowlist():
    found = local_imports()
    unexpected = {key: lines for key, lines in found.items()
                  if key not in ALLOWED}
    assert not unexpected, (
        "import inside a function (hoist it to module level, or allowlist "
        f"it with a reason if it is circular or cold): {unexpected}")


def test_allowlist_has_no_stale_entries():
    stale = set(ALLOWED) - set(local_imports())
    assert not stale, f"allowlisted functions no longer import: {stale}"


def test_scan_finds_imports_in_methods_and_nested_functions():
    tree = ast.parse(
        "import os\n"
        "class A:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            import sys\n"
        "        from os import path\n")
    assert _local_imports(tree) == [("A.f.g", 5), ("A.f", 6)]
