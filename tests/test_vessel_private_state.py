"""No module outside ``repro.vessel`` reads VESSEL's private state.

Containment is reached through :class:`repro.vessel.containment.Containment`
and small public reads on the owning classes (``has_app``,
``handler_count``, ``kernel_fd_counts``).  This test walks the AST of
every module under ``src/repro`` outside ``repro/vessel/`` and fails on
any ``_``-prefixed attribute reached through a name or attribute called
``system`` (``system._apps``, ``self.system._apps``,
``system.runtime._kernel_fds``).
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
ROOT = os.path.join(SRC, "repro")
VESSEL = os.path.join(ROOT, "vessel")


def _through_system(node):
    """Whether the attribute chain ``node`` passes through ``system``."""
    while isinstance(node, ast.Attribute):
        if node.attr == "system":
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id == "system"


def private_system_reads(root=ROOT, skip=VESSEL):
    """``path:line: expression`` for every private read through
    ``system`` in the modules under ``root``, minus ``skip``."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__"
                             and os.path.join(dirpath, d) != skip)
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) \
                        and node.attr.startswith("_") \
                        and not node.attr.startswith("__") \
                        and _through_system(node.value):
                    found.append(f"{os.path.relpath(path, SRC)}:"
                                 f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_private_system_reads_outside_vessel():
    found = private_system_reads()
    assert not found, (
        "private VESSEL state read from outside repro.vessel (add a "
        f"public read on the owning class instead): {found}")


def test_scan_sees_private_reads_inside_vessel():
    # Inside repro.vessel the containment module reaches the scheduler's
    # private state on purpose; scanning it proves the walk finds reads.
    assert private_system_reads(root=VESSEL, skip=None)
