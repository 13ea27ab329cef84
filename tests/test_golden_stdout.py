"""The experiments print byte-identical stdout.

``tests/golden_stdout.json`` maps every pinned command
(``tests/pinned.py``) to the sha256 of the stdout of ``python -m repro
<command>`` (seed 42, the front end's default), captured serially.  The
golden reports pin ``run_colocation``; this pins what the experiments
assemble from it.  The front end prints its wall-clock lines
(``[<name> took ...]``, ``[total ...]``) to stderr, so stdout alone is
deterministic.

Each case holds its command's one pinned run, made at ``--jobs 2``, to
the serial digest, so the same case checks that fanning a sweep out
leaves the bytes unchanged.  ``tests/test_claims.py`` judges its rows on
that same run.  Tier-1 checks the fast commands; the rest carry the
``heavy`` marker, which the default ``addopts`` deselects, and CI's
``smoke (heavy)`` entry runs them with ``-m heavy``.  The heavy set
also pins the bytes of the Chrome trace that ``TRACE_COMMAND`` writes.

A change that means to move this output re-captures the file
(``PYTHONPATH=src python -m tests.test_golden_stdout``) and explains
each changed digest in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest

from repro.__main__ import EXPERIMENTS
from tests.pinned import COMMANDS, TRACE_COMMAND, command, marks, pinned_run

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_stdout.json")
#: the file :data:`TRACE_COMMAND` writes, relative to its working
#: directory; its sha256 is pinned under ``"<command> > <file>"``
TRACE_FILE = "t.json"
TRACE_KEY = f"{TRACE_COMMAND} > {TRACE_FILE}"


def digest(data):
    return hashlib.sha256(data).hexdigest()


def stdout_digest(command, cwd):
    """sha256 of ``python -m repro <command>``'s stdout, run in a fresh
    process in ``cwd``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "repro", *command.split()], cwd=cwd, env=env,
        capture_output=True, check=True, timeout=600)
    return digest(result.stdout)


def trace_file_digest(cwd):
    stdout_digest(TRACE_COMMAND, cwd)
    with open(os.path.join(cwd, TRACE_FILE), "rb") as handle:
        return digest(handle.read())


def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", [
    pytest.param(name, id=command(name), marks=marks(name))
    for name in EXPERIMENTS])
def test_stdout_matches_golden(name):
    stdout, _ = pinned_run(name)
    assert digest(stdout.encode()) == golden()[command(name)]


@pytest.mark.heavy
def test_trace_out_file_matches_golden(tmp_path):
    assert trace_file_digest(tmp_path) == golden()[TRACE_KEY]


if __name__ == "__main__":
    # Re-capture: PYTHONPATH=src python -m tests.test_golden_stdout
    digests = {line: stdout_digest(line, REPO) for line in COMMANDS}
    with tempfile.TemporaryDirectory() as scratch:
        digests[TRACE_KEY] = trace_file_digest(scratch)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
