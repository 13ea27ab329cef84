"""No command runs the same simulation twice.

Determinism is checked by the pinned stdout digests and the scenario
tests, not by a command re-running its own arms.  This test counts every
``run_colocation_full`` call a command makes, keyed on the identity that
names a run's trace file (``run_identity``), with the process pool
replaced by a serial map so a pooled rerun is counted too, and fails on
any identity seen twice.
"""

import contextlib
import inspect
import io

import pytest

import repro.perf.parallel
from repro.__main__ import main
from repro.experiments import common, fault_chaos
from tests.pinned import TRACE_COMMAND, command

#: the scenario commands at their pinned profiles, ``tracecheck``
#: writing its trace as well, and ``ablations``, whose switch-cost sweep
#: reads its 1x point and Caladan reference from the variant table's runs
COMMANDS = tuple(command(name) for name in ("churn", "oversub", "overload",
                                            "chaos", "net")) \
    + (TRACE_COMMAND, "ablations --smoke")


@pytest.mark.heavy
@pytest.mark.parametrize("line", COMMANDS)
def test_no_simulation_runs_twice(line, tmp_path, monkeypatch):
    original = common.run_colocation_full
    signature = inspect.signature(original)
    identities = []

    def counted(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        identities.append(common.run_identity(bound.arguments))
        return original(*args, **kwargs)

    for module in (common, fault_chaos):
        monkeypatch.setattr(module, "run_colocation_full", counted)
    monkeypatch.setattr(repro.perf.parallel, "parallel_map",
                        lambda fn, items, jobs: [fn(item) for item in items])
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        main(line.split())
    assert identities
    repeated = len(identities) - len(set(identities))
    assert not repeated, (
        f"{repeated} of {len(identities)} runs repeat an earlier run")
