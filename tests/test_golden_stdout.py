"""The fast experiments print byte-identical stdout.

``tests/golden_stdout.json`` maps each command in :data:`COMMANDS` to the
sha256 of the stdout of ``python -m repro <command>`` (seed 42, the
front end's default).  The golden reports pin ``run_colocation``; this
pins what the experiments assemble from it: tables, gates and printed
verdicts.  The front end prints its wall-clock lines (``[<name> took
...]``, ``[total ...]``) to stderr, so stdout alone is deterministic.

Tier-1 checks the fast :data:`COMMANDS` (about a second each).  The
:data:`HEAVY_COMMANDS` (several seconds to half a minute each) carry the
``heavy`` marker, which the default ``addopts`` deselects; CI's
``smoke (golden stdout)`` entry runs them with
``python -m pytest tests/test_golden_stdout.py -m heavy``.  The heavy
set also holds a ``--jobs 2`` run to its serial command's digest, and
pins the bytes of the Chrome trace that :data:`TRACE_COMMAND` writes.

A change that means to move this output re-captures the file
(``PYTHONPATH=src python tests/test_golden_stdout.py``) and explains
each changed digest in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_stdout.json")
#: commands that take about a second each
COMMANDS = ("tab1", "fig03", "micro", "fig07")
#: the smoke profiles of the colocation, fault, net and scenario
#: experiments; ``fig09 --smoke`` alone runs VESSEL, the three Caladan
#: variants, Arachne and CFS
HEAVY_COMMANDS = ("fig09 --smoke", "fig13 --smoke", "chaos", "net",
                  "policies --smoke", "churn --smoke", "flashcrowd --smoke",
                  "oversub --smoke", "overload --smoke",
                  "tracecheck --smoke")
#: writes :data:`TRACE_FILE` (relative to its working directory), whose
#: sha256 is pinned under the key ``"<command> > <file>"``
TRACE_COMMAND = "tracecheck --smoke --trace-out t.json"
TRACE_FILE = "t.json"
TRACE_KEY = f"{TRACE_COMMAND} > {TRACE_FILE}"


def stdout_digest(command, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "repro", *command.split()], cwd=cwd, env=env,
        capture_output=True, check=True, timeout=300)
    return hashlib.sha256(result.stdout).hexdigest()


def trace_file_digest(cwd):
    stdout_digest(TRACE_COMMAND, cwd)
    with open(os.path.join(cwd, TRACE_FILE), "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("command", list(COMMANDS) + [
    pytest.param(command, marks=pytest.mark.heavy)
    for command in HEAVY_COMMANDS])
def test_stdout_matches_golden(command, tmp_path):
    assert stdout_digest(command, tmp_path) == golden()[command]


@pytest.mark.heavy
def test_jobs_2_prints_the_serial_bytes(tmp_path):
    assert stdout_digest("fig13 --smoke --jobs 2", tmp_path) \
        == golden()["fig13 --smoke"]


@pytest.mark.heavy
def test_trace_out_file_matches_golden(tmp_path):
    assert trace_file_digest(tmp_path) == golden()[TRACE_KEY]


if __name__ == "__main__":
    # Re-capture: PYTHONPATH=src python tests/test_golden_stdout.py
    digests = {command: stdout_digest(command, REPO)
               for command in COMMANDS + HEAVY_COMMANDS}
    with tempfile.TemporaryDirectory() as scratch:
        digests[TRACE_KEY] = trace_file_digest(scratch)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
