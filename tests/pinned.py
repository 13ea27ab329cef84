"""Every command's pinned run, shared by the stdout, claims and
runs-once tests.

Each command of the front end has one pinned profile, the one its
EXPERIMENTS.md section quotes: ``--smoke`` for the commands in
:data:`SMOKE`, the default for the rest.  :func:`pinned_run` runs a
command at that profile once per test session, in-process the way
``python -m repro <command> --jobs 2`` does, and keeps both what it
printed and what its ``main`` returned.  ``tests/test_golden_stdout.py``
holds the printed bytes to the serial digest, and ``tests/test_claims.py``
judges every scoreboard row on the returned results.
"""

import contextlib
import functools
import io

import pytest

from repro.__main__ import EXPERIMENTS, _banner, _run_module
from repro.experiments.common import ExperimentConfig

#: commands pinned at ``--smoke``; every other command runs at the
#: default profile
SMOKE = ("policies", "churn", "oversub", "overload", "tracecheck",
         "cluster")
#: commands whose pinned run takes under two seconds: tier-1 checks
#: them, and the rest carry the ``heavy`` marker
TIER1 = ("tab1", "fig02", "fig03", "fig07", "micro", "policies", "churn",
         "oversub", "tracecheck")


def command(name):
    """Experiment ``name``'s pinned command line, its key in
    ``tests/golden_stdout.json``."""
    return f"{name} --smoke" if name in SMOKE else name


#: every command, each at its pinned profile
COMMANDS = tuple(command(name) for name in EXPERIMENTS)
#: the pinned ``tracecheck`` run writing its chaos arm's trace, whose
#: bytes ``tests/golden_stdout.json`` pins under ``"<command> > t.json"``
TRACE_COMMAND = f"{command('tracecheck')} --trace-out t.json"


def marks(name):
    """Tier-1 for a fast command, ``heavy`` for the rest."""
    return () if name in TIER1 else pytest.mark.heavy


@functools.lru_cache(maxsize=None)
def pinned_run(name):
    """``(stdout, results)`` of experiment ``name``'s pinned command
    at ``--jobs 2``."""
    buffer = io.StringIO()
    buffer.write(_banner(name))
    with contextlib.redirect_stdout(buffer):
        results = _run_module(name, ExperimentConfig(jobs=2), name in SMOKE)
    return buffer.getvalue(), results
