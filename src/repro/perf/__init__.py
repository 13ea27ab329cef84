"""Simulator performance infrastructure.

:mod:`repro.perf.parallel` is a deterministic multiprocessing fan-out
used by ``python -m repro --jobs N`` (experiment-level) and by
:func:`repro.experiments.common.run_colocation_batch` (sweep-level).
Every simulation already owns its Simulator and seeded RNG streams, so
runs are independent and results merge in task order: parallel output
is byte-identical to the serial path under the same seed.

Simulator speed is measured by ``benchmarks/e2e`` (see
``benchmarks/e2e/README.md``).
"""

from repro.perf.parallel import available_jobs, parallel_map

__all__ = ["available_jobs", "parallel_map"]
