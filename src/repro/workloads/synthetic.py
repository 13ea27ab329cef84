"""Service-time distributions, and the exact draws behind them.

A sampler is a callable returning an integer nanosecond service time;
:class:`LognormalService` carries its analytic mean so capacity math
does not need sampling.

:func:`lognormal_ns` and :func:`exponential_ns` are the simulator's
integer-nanosecond draws of those two distributions (service times,
arrival gaps, burst phases, tenant lifetimes).  Each returns what
``max(1, int(rng.lognormvariate(mu, sigma)))`` or
``max(1, int(rng.expovariate(lambd)))`` returns, from the same
``rng.random()`` calls in the same order with the same float operations,
without the stdlib's two or one extra Python frames per draw.
:func:`int_below` is the per-packet payload samplers' integer draw: it
returns what ``rng.randrange(n)`` returns, from the same
``rng.getrandbits`` calls, without ``randint``'s three frames.  Every
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


def int_below(getrandbits, n: int) -> int:
    """``rng.randrange(n)`` for ``n > 0`` (so ``rng.randint(a, b)`` is
    ``a + int_below(getrandbits, b - a + 1)``), with ``getrandbits`` the
    generator's bound method.

    The stdlib's ``_randbelow_with_getrandbits`` rejection loop,
    verbatim: a draw of ``n.bit_length()`` bits at or above ``n`` is
    drawn again.
    """
    k = n.bit_length()  # don't use (n-1) here because n can be 1
    r = getrandbits(k)  # 0 <= r < 2**k
    while r >= n:
        r = getrandbits(k)
    return r


class LognormalService:
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
