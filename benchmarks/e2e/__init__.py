"""End-to-end simulator benchmark: four workloads, an exact-result check,
and a per-layer cProfile fold.  Run ``python -m benchmarks.e2e --help``;
see README.md in this directory for the workloads and metrics."""
