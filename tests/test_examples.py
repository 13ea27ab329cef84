"""Every script under ``examples/`` runs to a zero exit.

The examples call the library directly, so a deleted or renamed name can
break one without any other test noticing.  Each runs in a subprocess,
as a reader would run it.  ``colocation_study.py`` takes about 30 s, so
it runs as CI's ``smoke (examples)`` entry instead of here.
"""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(REPO, "examples")
#: examples too slow for tier-1, with where they run instead
SLOW = {"colocation_study.py": "CI smoke (examples)"}
SCRIPTS = sorted(name for name in os.listdir(EXAMPLES)
                 if name.endswith(".py") and name not in SLOW)


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_exits_zero(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, script)], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, (
        f"{script} exited {result.returncode}:\n{result.stderr[-2000:]}")
