"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables/figures at a reduced
("smoke") scale, asserts the qualitative shape the paper reports, and
prints the paper-vs-measured rows.  Full-scale runs:
``python -m repro <name> --scale paper`` (``python -m repro --list``
names the experiments).

Benchmarks write their printed tables to ``benchmarks/results/`` as well,
since pytest captures stdout (run with ``-s`` to see them live).
"""

import contextlib
import io
import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture
def record_output(request):
    """Capture an experiment's printed table and persist it."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    @contextlib.contextmanager
    def _recorder():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            yield buffer
        text = buffer.getvalue()
        path = os.path.join(RESULTS_DIR, f"{request.node.name}.txt")
        with open(path, "w") as handle:
            handle.write(text)
        print(text)

    return _recorder
