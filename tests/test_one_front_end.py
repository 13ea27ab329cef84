"""``python -m repro`` is the only command-line front end.

A documented command must mean one config, so no module under
``src/repro`` other than ``repro/__main__.py`` may parse arguments or
be runnable on its own: no ``if __name__ == "__main__":`` block, no
``argparse`` import.  The retired per-module entry points
(``parse_profile``, ``cli_main``, ``_CLI_EXPERIMENTS``,
``smoke_config``) must not come back under ``src`` or ``examples``,
whether as a definition, an import or a reference.
"""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")
FRONT_END = os.path.join(SRC, "__main__.py")
RETIRED = {"parse_profile", "cli_main", "_CLI_EXPERIMENTS", "smoke_config"}


def _python_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _is_main_guard(node):
    """``if __name__ == "__main__":`` (either operand order)."""
    if not isinstance(node, ast.If) or not isinstance(node.test, ast.Compare):
        return False
    operands = [node.test.left, *node.test.comparators]
    return (any(isinstance(o, ast.Name) and o.id == "__name__"
                for o in operands)
            and any(isinstance(o, ast.Constant) and o.value == "__main__"
                    for o in operands))


def _imports_argparse(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "argparse"
                   for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.module == "argparse"


def _names(node):
    """Identifiers a node defines, imports or references."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [(alias.asname or alias.name).split(".")[-1]
                for alias in node.names]
    return []


def command_lines(root=SRC):
    """``path: what`` for every command-line entry outside the front end."""
    found = []
    for path in _python_files(root):
        if path == FRONT_END:
            continue
        tree = _parse(path)
        rel = os.path.relpath(path, REPO)
        for node in tree.body:
            if _is_main_guard(node):
                found.append(f"{rel}:{node.lineno}: __main__ block")
        for node in ast.walk(tree):
            if _imports_argparse(node):
                found.append(f"{rel}:{node.lineno}: imports argparse")
    return found


def retired_names(roots=(SRC, os.path.join(REPO, "examples"))):
    found = []
    for root in roots:
        for path in _python_files(root):
            rel = os.path.relpath(path, REPO)
            for node in ast.walk(_parse(path)):
                for name in _names(node):
                    if name in RETIRED:
                        found.append(f"{rel}:{node.lineno}: {name}")
    return found


def test_only_the_front_end_has_a_command_line():
    found = command_lines()
    assert not found, (
        "only repro/__main__.py may parse arguments or run as a script; "
        f"route these through `python -m repro`: {found}")


def test_retired_entry_points_stay_gone():
    found = retired_names()
    assert not found, (
        f"per-module entry points are retired; use `python -m repro`: "
        f"{found}")


def test_the_scan_sees_what_it_forbids(tmp_path):
    """The checks are live: a planted copy of each banned shape is found."""
    (tmp_path / "planted.py").write_text(
        "import argparse\n"
        "from repro.experiments.common import parse_profile\n"
        "def cli_main(argv=None):\n"
        "    return smoke_config()\n"
        "if '__main__' == __name__:\n"
        "    cli_main()\n")
    lines = command_lines(str(tmp_path))
    assert [line.split(": ", 1)[1] for line in lines] \
        == ["__main__ block", "imports argparse"]
    names = {line.rsplit(": ", 1)[1]
             for line in retired_names((str(tmp_path),))}
    assert names == {"parse_profile", "cli_main", "smoke_config"}
