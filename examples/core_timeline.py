#!/usr/bin/env python
"""Figure-7-style core timelines: watch the schedulers fill (or waste)
cores.

Prints the occupancy strips of ``python -m repro fig07`` at seed 7:
identical VESSEL and Caladan runs (memcached + Linpack, two worker
cores) traced over a 200 µs window, with ``M`` = memcached, ``L`` =
Linpack, ``r`` = userspace runtime (spins, stealing, switches), ``K`` =
kernel (rebinds, the 5.3 µs reallocation pipeline), ``.`` = idle.

Run:  python examples/core_timeline.py
"""

from repro.experiments import fig07_timeline
from repro.experiments.common import ExperimentConfig

BLURBS = {
    "vessel": "VESSEL (one-level): 0.16 us switches pack the cores",
    "caladan": "Caladan (two-level): 2 us spins, kernel rebinds, idle gaps",
}


def main() -> None:
    results = fig07_timeline.run(ExperimentConfig(seed=7))
    for system_name, blurb in BLURBS.items():
        print(f"== {blurb} ==")
        print(results[system_name]["strip"])
        print()


if __name__ == "__main__":
    main()
