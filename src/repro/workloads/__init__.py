"""Workload generators matching the paper's evaluation (§6.1).

Latency-critical applications (L-apps):

``memcached``
    Facebook USR-like key-value traffic: ~1 µs mean service time,
    read-heavy, open-loop Poisson (optionally bursty) arrivals.
``silo``
    TPC-C-like OLTP: heavy-tailed service times (20 µs median,
    ~280 µs P999).

Best-effort applications (B-apps):

``linpack``
    CPU-bound floating-point batch work; its throughput is the CPU time
    it harvests.
``membench``
    Alternating memory-streaming and compute phases driving the shared
    memory bus (Figure 13).
``objcopy``
    The Figure 11 object-copy workload, driving the cache simulator.

``base`` defines the app/request abstractions and the open-loop source;
``synthetic`` provides the service-time distributions.
"""

from repro.workloads.base import (
    App,
    AppKind,
    Request,
    OpenLoopSource,
    BurstySource,
)
from repro.workloads.synthetic import LognormalService
from repro.workloads.memcached import memcached_app, MEMCACHED_MEAN_SERVICE_NS
from repro.workloads.silo import silo_app, SILO_MEDIAN_SERVICE_NS
from repro.workloads.linpack import linpack_app, LinpackWork
from repro.workloads.membench import membench_app, MembenchWork
from repro.workloads.objcopy import ObjCopyApp

__all__ = [
    "App",
    "AppKind",
    "Request",
    "OpenLoopSource",
    "BurstySource",
    "LognormalService",
    "memcached_app",
    "MEMCACHED_MEAN_SERVICE_NS",
    "silo_app",
    "SILO_MEDIAN_SERVICE_NS",
    "linpack_app",
    "LinpackWork",
    "membench_app",
    "MembenchWork",
    "ObjCopyApp",
]
