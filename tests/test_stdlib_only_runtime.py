"""The runtime needs the standard library only.

Nothing under ``src/repro`` imports numpy: the latency summary
(``repro.sim.stats.summarize_ns``) is exact in pure Python, and numpy
stays a test-only oracle (``tests/sim/test_stats.py``).  One test walks
the AST of every module under ``src/repro`` and fails on any import of a
banned package; another runs the front end's module and a short
colocation run in a fresh interpreter and checks that numpy was never
loaded, by any import path.
"""

import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
ROOT = os.path.join(SRC, "repro")
#: top-level packages the runtime must not import
BANNED = {"numpy"}


def banned_imports(tree):
    """``(module, line)`` for every import of a banned package: ``import``
    and ``from ... import`` statements, and ``__import__`` or
    ``import_module`` called with a literal name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 and node.module else []
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("__import__", "import_module")):
            names = [node.args[0].value]
        else:
            continue
        found += [(name, node.lineno) for name in names
                  if name.split(".")[0] in BANNED]
    return found


def test_runtime_imports_no_banned_package():
    found = {}
    for directory, _, files in os.walk(ROOT):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                imports = banned_imports(ast.parse(handle.read(),
                                                   filename=path))
            if imports:
                found[os.path.relpath(path, SRC)] = imports
    assert not found, f"the runtime is stdlib-only: {found}"


def test_scan_finds_every_import_form():
    tree = ast.parse(
        "import numpy\n"
        "import numpy.linalg as la, os\n"
        "from numpy import percentile\n"
        "from numpy.random import default_rng\n"
        "def f():\n"
        "    import numpy as np\n"
        "    m = __import__('numpy')\n"
        "    return importlib.import_module('numpy.fft')\n"
        "from . import numpy_free\n"
        "import numpyish\n")
    assert banned_imports(tree) == [
        ("numpy", 1), ("numpy.linalg", 2), ("numpy", 3), ("numpy.random", 4),
        ("numpy", 6), ("numpy", 7), ("numpy.fft", 8)]


def test_a_run_never_loads_numpy():
    script = (
        "import sys\n"
        "import repro.__main__\n"
        "from repro.experiments.common import ExperimentConfig, "
        "run_colocation\n"
        "report = run_colocation('vessel', ExperimentConfig("
        "num_workers=2, sim_ms=1, warmup_ms=0), "
        "l_specs=[('memcached', 'mc', 0.5)])\n"
        "assert report.latency['mc']['count'] > 0, report.latency\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.split('.')[0] == 'numpy'))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
