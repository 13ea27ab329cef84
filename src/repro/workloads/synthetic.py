"""Service-time distributions, and the exact draws behind them.

Each sampler is a callable returning an integer nanosecond service time;
they carry their analytic mean so capacity math does not need sampling.

:func:`lognormal_ns` and :func:`exponential_ns` are the simulator's
integer-nanosecond draws of those two distributions (service times,
arrival gaps, burst phases, tenant lifetimes).  Each returns what
``max(1, int(rng.lognormvariate(mu, sigma)))`` or
``max(1, int(rng.expovariate(lambd)))`` returns, from the same
``rng.random()`` calls in the same order with the same float operations,
without the stdlib's two or one extra Python frames per draw.  Every
such draw in the simulator goes through them, and
``tests/workloads/test_exact_draws.py`` holds them to the stdlib.
"""

from __future__ import annotations

import random
from math import exp, log
from random import NV_MAGICCONST


def lognormal_ns(rand, mu: float, sigma: float) -> int:
    """``max(1, int(rng.lognormvariate(mu, sigma)))``, with ``rand`` the
    generator's bound ``random`` method.

    The stdlib's Kinderman-Monahan ratio-of-uniforms loop, verbatim: a
    rejected pair draws again, so one call may consume four or more
    uniforms.
    """
    while True:
        u1 = rand()
        u2 = 1.0 - rand()
        z = NV_MAGICCONST * (u1 - 0.5) / u2
        if z * z / 4.0 <= -log(u2):
            break
    value = int(exp(mu + z * sigma))
    return value if value > 1 else 1


def exponential_ns(rand, lambd: float) -> int:
    """``max(1, int(rng.expovariate(lambd)))``, with ``rand`` the
    generator's bound ``random`` method (``lambd`` = 1 / mean)."""
    value = int(-log(1.0 - rand()) / lambd)
    return value if value > 1 else 1


class ServiceSampler:
    """Base: callable with a known mean."""

    mean_ns: float

    def __call__(self) -> int:
        raise NotImplementedError


class ConstantService(ServiceSampler):
    """Deterministic service time."""

    def __init__(self, service_ns: int) -> None:
        if service_ns <= 0:
            raise ValueError(f"service time must be positive: {service_ns}")
        self.service_ns = int(service_ns)
        self.mean_ns = float(service_ns)

    def __call__(self) -> int:
        return self.service_ns


class ExponentialService(ServiceSampler):
    """Exponential service time (the classic M/M/k assumption)."""

    def __init__(self, mean_ns: float, rng: random.Random) -> None:
        if mean_ns <= 0:
            raise ValueError(f"mean must be positive: {mean_ns}")
        self.mean_ns = float(mean_ns)
        self.rng = rng

    def __call__(self) -> int:
        return exponential_ns(self.rng.random, 1.0 / self.mean_ns)


class LognormalService(ServiceSampler):
    """Lognormal service time parameterized by median and sigma."""

    def __init__(self, median_ns: float, sigma: float,
                 rng: random.Random) -> None:
        if median_ns <= 0 or sigma < 0:
            raise ValueError("median must be positive and sigma >= 0")
        self.mu = log(median_ns)
        self.sigma = sigma
        self.mean_ns = median_ns * exp(sigma * sigma / 2.0)
        self.rng = rng

    def __call__(self) -> int:
        return lognormal_ns(self.rng.random, self.mu, self.sigma)


class BimodalService(ServiceSampler):
    """Two-point mixture (short fast path, occasional slow path)."""

    def __init__(self, fast_ns: int, slow_ns: int, slow_fraction: float,
                 rng: random.Random) -> None:
        if not 0.0 <= slow_fraction <= 1.0:
            raise ValueError(f"slow_fraction out of range: {slow_fraction}")
        self.fast_ns = int(fast_ns)
        self.slow_ns = int(slow_ns)
        self.slow_fraction = slow_fraction
        self.rng = rng
        self.mean_ns = (fast_ns * (1 - slow_fraction)
                        + slow_ns * slow_fraction)

    def __call__(self) -> int:
        if self.rng.random() < self.slow_fraction:
            return self.slow_ns
        return self.fast_ns
