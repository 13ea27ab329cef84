"""Experiment harness: one module per table/figure in the paper (§6).

Every module exposes ``run(cfg)`` returning a plain dict of series (so
tests and benchmarks can assert on shapes) and ``main(cfg)`` which
prints the paper-style rows.  A module may also define ``SMOKE``
(overrides on top of ``common.SMOKE_PROFILE``) and ``gate(cfg,
results)`` (post-run checks that raise on failure); ``--smoke`` uses
both.  Modules have no command line of their own: every run gets its
config from the one front end, ``repro.__main__``::

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
"""

from repro.experiments.common import ExperimentConfig, run_colocation

__all__ = ["ExperimentConfig", "run_colocation"]
