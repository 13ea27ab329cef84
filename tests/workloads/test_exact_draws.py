"""The exact per-request draws equal the stdlib's, draw for draw.

``lognormal_ns`` and ``exponential_ns`` replace
``max(1, int(rng.lognormvariate(mu, sigma)))`` and
``max(1, int(rng.expovariate(lambd)))`` on the request path
(``UsrServiceSampler`` and ``OpenLoopSource._tick`` among their callers),
and ``int_below`` replaces ``rng.randrange(n)`` (so ``randint``) in the
payload samplers, so every seeded result depends on them returning the
same integers and leaving the generator in the same state.  The helper
and USR checks run 20 seeds x 100,000 draws against a twin generator
driven through the stdlib; the sources' arrivals and both payload
samplers are replayed through the stdlib.
"""

import math
import random

import pytest

from repro.sim.engine import Simulator
from repro.workloads.base import App, AppKind, BurstySource, OpenLoopSource
from repro.workloads.memcached import UsrPayloadSampler, UsrServiceSampler
from repro.workloads.silo import TpccPayloadSampler
from repro.workloads.synthetic import (
    LognormalService, exponential_ns, int_below,
    lognormal_ns)

SEEDS = range(20)
DRAWS = 100_000

#: the USR mix's two lognormal components: (median ns, sigma)
USR_COMPONENTS = ((930, 0.22), (1450, 0.30))
#: 1 / mean for the arrival gaps the benchmarks draw (18.9, 2.0 and
#: 0.1 Mops/s, with the source's exact float ops) and a burst phase
RATES = tuple(1.0 / (1000.0 / mops) for mops in (18.9, 2.0, 0.1)) \
    + (1.0 / 20_000,)


def _stdlib_lognormal(rng, mu, sigma):
    return max(1, int(rng.lognormvariate(mu, sigma)))


def _stdlib_exponential(rng, lambd):
    return max(1, int(rng.expovariate(lambd)))


@pytest.mark.parametrize("seed", SEEDS)
def test_lognormal_ns_matches_lognormvariate(seed):
    """Both USR components, alternating, give the stdlib's integers and
    leave the generator in the stdlib's state."""
    params = [(math.log(median), sigma) for median, sigma in USR_COMPONENTS]
    rng, twin = random.Random(seed), random.Random(seed)
    rand = rng.random
    drawn = [lognormal_ns(rand, *params[i & 1]) for i in range(DRAWS)]
    expected = [_stdlib_lognormal(twin, *params[i & 1])
                for i in range(DRAWS)]
    assert drawn == expected
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_exponential_ns_matches_expovariate(seed):
    rng, twin = random.Random(seed), random.Random(seed)
    rand = rng.random
    count = len(RATES)
    drawn = [exponential_ns(rand, RATES[i % count]) for i in range(DRAWS)]
    expected = [_stdlib_exponential(twin, RATES[i % count])
                for i in range(DRAWS)]
    assert drawn == expected
    assert rng.getstate() == twin.getstate()


def test_lognormal_rejection_loop_runs_more_than_once():
    """Some draws reject their first uniform pair (the Kinderman-Monahan
    loop draws again); those too match the stdlib."""
    rng, twin = random.Random(7), random.Random(7)
    uniforms = []

    def rand():
        value = rng.random()
        uniforms.append(value)
        return value

    used = []
    mu = math.log(930)
    for _ in range(10_000):
        before = len(uniforms)
        value = lognormal_ns(rand, mu, 0.22)
        used.append(len(uniforms) - before)
        assert value == _stdlib_lognormal(twin, mu, 0.22)
    assert min(used) == 2
    assert max(used) >= 6
    assert sum(1 for n in used if n > 2) > 1_000
    assert rng.getstate() == twin.getstate()


def test_draws_floor_at_one():
    rng, twin = random.Random(3), random.Random(3)
    assert [lognormal_ns(rng.random, -20.0, 0.5) for _ in range(100)] \
        == [_stdlib_lognormal(twin, -20.0, 0.5) for _ in range(100)] \
        == [1] * 100
    assert [exponential_ns(rng.random, 1e9) for _ in range(100)] \
        == [_stdlib_exponential(twin, 1e9) for _ in range(100)] \
        == [1] * 100
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_usr_sampler_matches_stdlib(seed):
    """The USR sampler's coin, then one
    lognormal draw of the chosen component, give the stdlib's values
    and state."""
    rng, twin = random.Random(seed), random.Random(seed)
    usr = UsrServiceSampler(rng)
    params = {True: (math.log(930), 0.22), False: (math.log(1450), 0.30)}
    drawn = [usr() for _ in range(DRAWS)]
    expected = [_stdlib_lognormal(twin, *params[twin.random() < 0.97])
                for _ in range(DRAWS)]
    assert drawn == expected
    assert rng.getstate() == twin.getstate()


def test_single_distribution_samplers_draw_what_the_stdlib_draws():
    rng, twin = random.Random(11), random.Random(11)
    lognormal = LognormalService(2000, 0.5, rng)
    assert [lognormal() for _ in range(5_000)] == [
        _stdlib_lognormal(twin, math.log(2000), 0.5) for _ in range(5_000)]
    assert [exponential_ns(rng.random, 1.0 / 1500.0) for _ in range(5_000)] \
        == [_stdlib_exponential(twin, 1.0 / 1500.0) for _ in range(5_000)]
    assert rng.getstate() == twin.getstate()


#: the USR payload sampler's randint widths; none is a power of two, so
#: the rejection loop draws again
INT_WIDTHS = (6, 29, 449)


@pytest.mark.parametrize("seed", SEEDS)
def test_int_below_matches_randrange(seed):
    rng, twin = random.Random(seed), random.Random(seed)
    bits = rng.getrandbits
    count = len(INT_WIDTHS)
    drawn = [int_below(bits, INT_WIDTHS[i % count]) for i in range(DRAWS)]
    expected = [twin.randrange(INT_WIDTHS[i % count]) for i in range(DRAWS)]
    assert drawn == expected
    assert rng.getstate() == twin.getstate()


def test_int_below_rejection_loop_runs_more_than_once():
    """Draws at or above ``n`` are drawn again, and still match."""
    rng, twin = random.Random(9), random.Random(9)
    calls = []

    def bits(k):
        calls.append(k)
        return rng.getrandbits(k)

    rejected = 0
    for i in range(10_000):
        before = len(calls)
        width = INT_WIDTHS[i % len(INT_WIDTHS)]
        assert int_below(bits, width) == twin.randrange(width)
        rejected += len(calls) - before > 1
    assert rejected > 1_000
    assert int_below(rng.getrandbits, 1) == twin.randrange(1) == 0
    assert rng.getstate() == twin.getstate()


def _stdlib_usr_payload(rng):
    key = rng.randint(16, 21)
    if rng.random() < 0.95:
        value = rng.randint(2, 30)
    else:
        value = rng.randint(64, 512)
    if rng.random() < 0.97:
        return 24 + key, 32 + value
    return 32 + key + value, 8


def _stdlib_tpcc_payload(rng):
    bytes_in = 96 + rng.randint(0, 416)
    if rng.random() < 0.55:
        bytes_out = 512 + rng.randint(0, 1536)
    else:
        bytes_out = 64 + rng.randint(0, 192)
    return bytes_in, bytes_out


@pytest.mark.parametrize("sampler_cls, stdlib", [
    (UsrPayloadSampler, _stdlib_usr_payload),
    (TpccPayloadSampler, _stdlib_tpcc_payload),
])
def test_payload_samplers_match_their_randint_versions(sampler_cls, stdlib):
    for seed in range(4):
        rng, twin = random.Random(seed), random.Random(seed)
        sampler = sampler_cls(rng)
        assert [sampler() for _ in range(DRAWS)] \
            == [stdlib(twin) for _ in range(DRAWS)]
        assert rng.getstate() == twin.getstate()


def _arrivals(source_cls, rate_mops, until_ns, **kwargs):
    sim = Simulator()
    app = App("mc", AppKind.LATENCY)
    times = []
    source_cls(sim, app, lambda request: times.append(request.arrival_ns),
               rate_mops, lambda: 1000, random.Random(5), **kwargs)
    sim.run(until=until_ns)
    return times


def test_open_loop_arrivals_follow_stdlib_gaps():
    """``OpenLoopSource._tick``'s arrival times are the running sum of
    the stdlib's gaps."""
    rate = 18.9
    times = _arrivals(OpenLoopSource, rate, 2_000_000)
    twin = random.Random(5)
    expected, now = [], 0
    while now < 2_000_000:
        expected.append(now)
        now += _stdlib_exponential(twin, 1.0 / (1000.0 / rate))
    assert times == expected


def test_bursty_arrivals_follow_stdlib_draws():
    """Arrival gaps and phase lengths share one generator; replaying
    both through the stdlib in event order gives the same arrivals."""
    rate, calm, burst, factor = 4.0, 30_000, 10_000, 4.0
    until = 1_000_000
    times = _arrivals(BurstySource, rate, until, burst_factor=factor,
                      calm_mean_ns=calm, burst_mean_ns=burst)
    base = rate * (calm + burst) / (calm + factor * burst)
    twin = random.Random(5)
    expected = []
    next_tick, next_toggle, in_burst = 0, calm, False
    current = base
    while min(next_tick, next_toggle) < until:
        # A tick and a toggle due at the same time would fire in
        # scheduling order; none coincide with these draws (a tie
        # ordered the other way would fail the exact match below).
        if next_tick <= next_toggle:
            expected.append(next_tick)
            next_tick += _stdlib_exponential(twin, 1.0 / (1000.0 / current))
        else:
            in_burst = not in_burst
            current = base * (factor if in_burst else 1.0)
            mean = burst if in_burst else calm
            next_toggle += _stdlib_exponential(twin, 1.0 / mean)
    assert len(times) > 1_000
    assert times == expected
