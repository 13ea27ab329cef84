"""The fast experiments print byte-identical stdout.

``tests/golden_stdout.json`` maps each command in :data:`COMMANDS` to the
sha256 of the stdout of ``python -m repro <command>`` (seed 42, the
front end's default).  The golden reports pin ``run_colocation``; this
pins what the experiments assemble from it: tables, gates and printed
verdicts.  The front end prints its wall-clock lines (``[<name> took
...]``, ``[total ...]``) to stderr, so stdout alone is deterministic.

A change that means to move this output re-captures the file
(``PYTHONPATH=src python tests/test_golden_stdout.py``) and explains
each changed digest in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_stdout.json")
#: commands that take about a second each; the heavier ones are not
#: pinned here yet
COMMANDS = ("tab1", "fig03", "micro", "fig07")


def stdout_digest(command, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "repro", command], cwd=cwd, env=env,
        capture_output=True, check=True, timeout=300)
    return hashlib.sha256(result.stdout).hexdigest()


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_golden(command, tmp_path):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert stdout_digest(command, tmp_path) == golden[command]


if __name__ == "__main__":
    # Re-capture: PYTHONPATH=src python tests/test_golden_stdout.py
    with open(GOLDEN_PATH, "w") as handle:
        json.dump({command: stdout_digest(command, REPO)
                   for command in COMMANDS}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
