"""Tests for the multiprocessing fan-out (repro.perf.parallel).

The contract under test is *byte-identical determinism*: any --jobs
value must produce exactly the bytes (and report values) of the serial
run, because every simulation is hermetic and results merge in task
order.
"""

import io

import pytest

from repro.experiments.common import (
    ExperimentConfig,
    run_colocation,
    run_colocation_batch,
)
from repro.perf.parallel import parallel_map


def _square(x):
    return x * x


def test_parallel_map_preserves_order_in_process():
    assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]


def test_parallel_map_preserves_order_with_pool():
    assert parallel_map(_square, list(range(10)), jobs=2) \
        == [x * x for x in range(10)]


def test_parallel_map_empty():
    assert parallel_map(_square, [], jobs=4) == []


# ----------------------------------------------------------------------
# run_colocation_batch: parallel == serial, bit for bit
# ----------------------------------------------------------------------
_SMALL = ExperimentConfig(seed=42, sim_ms=8, warmup_ms=2)
_TASKS = [
    ("vessel", _SMALL,
     dict(l_specs=[("memcached", "memcached", 1.0)], b_specs=("linpack",))),
    ("caladan", _SMALL,
     dict(l_specs=[("memcached", "memcached", 1.0)], b_specs=("linpack",))),
]


def _report_key(report):
    return (report.system, report.elapsed_ns, report.completed,
            report.buckets, report.latency, report.useful_ns,
            report.events_fired)


def test_batch_matches_serial_loop():
    serial = [run_colocation(name, cfg, **kwargs)
              for name, cfg, kwargs in _TASKS]
    batched = run_colocation_batch(_TASKS, jobs=2)
    assert [_report_key(r) for r in batched] \
        == [_report_key(r) for r in serial]


def test_batch_jobs_value_does_not_change_reports():
    one = run_colocation_batch(_TASKS, jobs=1)
    two = run_colocation_batch(_TASKS, jobs=2)
    assert [_report_key(r) for r in one] == [_report_key(r) for r in two]


# ----------------------------------------------------------------------
# run_experiments: --jobs N stdout is byte-identical to --jobs 1
# ----------------------------------------------------------------------
@pytest.mark.parametrize("selected", [["tab1", "micro"], ["fig09"]])
def test_run_experiments_jobs_byte_identical(selected):
    """Both fan-out shapes: several experiments (process-per-experiment)
    and a single experiment (inner sweep fan-out via cfg.jobs)."""
    from repro.__main__ import run_experiments

    cfg = ExperimentConfig(seed=42, sim_ms=8, warmup_ms=2)
    serial = io.StringIO()
    run_experiments(selected, cfg, jobs=1, stream=serial)
    parallel = io.StringIO()
    run_experiments(selected, cfg, jobs=3, stream=parallel)
    assert parallel.getvalue() == serial.getvalue()
    assert serial.getvalue()  # sanity: the experiments printed something
