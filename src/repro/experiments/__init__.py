"""Experiment harness: one module per table/figure in the paper (§6),
plus the scenarios that go past it.

Every module exposes ``main(cfg)``, which prints the paper-style rows
and returns a plain dict of results; most also expose ``run(cfg)``,
which returns that dict without printing.  Experiments only measure and
print: the claims table in ``tests/test_claims.py`` judges every claim
and check on the dict that ``main`` returns.  A module may also define
``SMOKE`` (overrides on top of ``common.SMOKE_PROFILE``), which
``--smoke`` applies.  Modules have no command line of their own: every
run gets its config from the one front end, ``repro.__main__``::

    python -m repro fig09
    python -m repro tab1 --scale paper
    python -m repro churn --smoke

| Module                  | Reproduces                                    |
|-------------------------|-----------------------------------------------|
| fig01_colocation_cost   | Fig. 1: cost of colocation under Caladan      |
| fig02_dense_cost        | Fig. 2: cycles breakdown, dense colocation    |
| fig03_realloc_timeline  | Fig. 3: Caladan core-reallocation timeline    |
| fig07_timeline          | Fig. 7: traced execution timelines            |
| tab1_context_switch     | Table 1: switch-latency distribution          |
| fig09_colocation        | Fig. 9: L+B colocation across all systems     |
| fig10_dense             | Fig. 10: 1 vs 10 memcached on one core        |
| fig11_cache             | Fig. 11: cache friendliness                   |
| fig12_scalability       | Fig. 12: goodput vs managed cores             |
| fig13_membw             | Fig. 13: bandwidth-aware colocation + reg.    |
| micro_uintr             | §2.2: Uintr vs IPI signal latency             |
| ablations               | DESIGN §7: mechanism-vs-policy ablations      |
| sensitivity             | how cheap a switch VESSEL's edge needs        |
| fault_chaos             | ``chaos``: §4.3 containment under faults      |
| net_smoke               | ``net``: client-observed latency, lossy link  |
| policy_zoo              | ``policies``: scheduling policies compared    |
| churn                   | §5.1 teardown under tenant create/destroy     |
| oversub                 | more runnable uProcesses than cores           |
| overload_suite          | ``overload``: flash crowd, then chaos         |
| flashcrowd              | the flash-crowd arms (``overload``'s table)   |
| tracecheck              | the flight recorder's invariants              |
| cluster                 | a fleet of servers behind a balancer          |
"""

from repro.experiments.common import ExperimentConfig, run_colocation

__all__ = ["ExperimentConfig", "run_colocation"]
