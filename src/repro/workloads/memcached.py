"""Memcached with Facebook's USR request mix (§6.1).

USR is read-dominated (GETs of small keys) with occasional SETs; the
paper reports ~1 µs average service time.  We model GETs as a tight
lognormal around 0.9 µs and SETs slightly slower, giving a 1 µs mean.
"""

from __future__ import annotations

import random

from repro.workloads.base import App, AppKind
from repro.workloads.synthetic import (LognormalService, int_below,
                                      lognormal_ns)

MEMCACHED_MEAN_SERVICE_NS = 1000
_GET_FRACTION = 0.97


class UsrServiceSampler:
    """USR mix: mostly GETs, a few SETs, ~1 µs mean."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._get = LognormalService(median_ns=930, sigma=0.22, rng=rng)
        self._set = LognormalService(median_ns=1450, sigma=0.30, rng=rng)
        self.mean_ns = (_GET_FRACTION * self._get.mean_ns
                        + (1 - _GET_FRACTION) * self._set.mean_ns)

    def __call__(self) -> int:
        # Hot path: one call per request.  One lognormal draw with the
        # chosen component's parameters, exactly what calling the
        # component would draw, without the component's frame.
        rand = self.rng.random
        part = self._get if rand() < _GET_FRACTION else self._set
        return lognormal_ns(rand, part.mu, part.sigma)


class UsrPayloadSampler:
    """(bytes_in, bytes_out) for the USR mix.

    Facebook's USR pool is tiny-object dominated: keys are 16-21 B and
    values a few bytes to a few tens of bytes.  A GET carries the key in
    and the value out; a SET carries key+value in and a short stored-ack
    out.  Sizes are drawn independently of the service-time sampler's
    GET/SET coin — the correlation does not affect link serialization,
    which only sees the byte distribution.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def __call__(self) -> tuple:
        # Draw order: key size, value coin, value size, GET/SET coin.
        # Each randint(a, b) is a + int_below(getrandbits, b - a + 1).
        rng = self.rng
        bits = rng.getrandbits
        key = 16 + int_below(bits, 6)
        # Mostly 2-30 B values with an occasional few-hundred-byte object.
        if rng.random() < 0.95:
            value = 2 + int_below(bits, 29)
        else:
            value = 64 + int_below(bits, 449)
        if rng.random() < _GET_FRACTION:
            return 24 + key, 32 + value       # GET: key in, value out
        return 32 + key + value, 8            # SET: key+value in, ack out


def memcached_app(name: str = "memcached") -> App:
    """A memcached L-app (pair it with a UsrServiceSampler source)."""
    return App(name, AppKind.LATENCY,
               mean_service_ns=MEMCACHED_MEAN_SERVICE_NS)
