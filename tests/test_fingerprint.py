"""The report fingerprint sees every field it is meant to compare."""

import pytest

from repro.sched.base import SystemReport
from tests.fingerprint import report_fingerprint


def _report(**fields):
    return SystemReport(system="vessel", elapsed_ns=1_000,
                        num_worker_cores=2, **fields)


@pytest.mark.parametrize("field,first,second", [
    ("useful_ns", {"lp": 500}, {"lp": 501}),
    ("buckets", {"app:mc": 700, "idle": 300},
     {"app:mc": 699, "idle": 301}),
])
def test_report_fingerprint_reads_efficiency_fields(field, first, second):
    assert report_fingerprint([_report(**{field: first})]) \
        != report_fingerprint([_report(**{field: second})])
    assert report_fingerprint([_report(**{field: first})]) \
        == report_fingerprint([_report(**{field: dict(first)})])
