"""Tests for service-time distributions."""

import math
import random

import pytest

from repro.workloads.synthetic import (
    BimodalService,
    ConstantService,
    ExponentialService,
    LognormalService,
)


def test_constant_exact():
    sampler = ConstantService(750)
    assert all(sampler() == 750 for _ in range(10))
    assert sampler.mean_ns == 750


def test_constant_rejects_nonpositive():
    with pytest.raises(ValueError):
        ConstantService(0)


def test_exponential_mean():
    sampler = ExponentialService(2000, random.Random(0))
    samples = [sampler() for _ in range(50_000)]
    assert sum(samples) / len(samples) == pytest.approx(2000, rel=0.05)


def test_exponential_never_below_one():
    sampler = ExponentialService(5, random.Random(1))
    assert min(sampler() for _ in range(10_000)) >= 1


def test_lognormal_median_and_mean():
    sampler = LognormalService(median_ns=20_000, sigma=0.854,
                               rng=random.Random(2))
    samples = sorted(sampler() for _ in range(50_000))
    median = samples[len(samples) // 2]
    assert median == pytest.approx(20_000, rel=0.05)
    analytic_mean = 20_000 * math.exp(0.854 ** 2 / 2)
    assert sum(samples) / len(samples) == pytest.approx(analytic_mean,
                                                        rel=0.1)


def test_lognormal_p999_matches_silo_spec():
    from repro.workloads.silo import silo_service_sampler
    sampler = silo_service_sampler(random.Random(3))
    samples = sorted(sampler() for _ in range(200_000))
    p999 = samples[int(len(samples) * 0.999)]
    assert p999 == pytest.approx(280_000, rel=0.12)  # paper: 280 us


def test_bimodal_mixture():
    sampler = BimodalService(1000, 10_000, 0.1, random.Random(4))
    samples = [sampler() for _ in range(20_000)]
    assert set(samples) == {1000, 10_000}
    slow_fraction = samples.count(10_000) / len(samples)
    assert slow_fraction == pytest.approx(0.1, abs=0.02)
    assert sampler.mean_ns == pytest.approx(1900)


def test_bimodal_fraction_validated():
    with pytest.raises(ValueError):
        BimodalService(1, 2, 1.5, random.Random(0))


def test_memcached_usr_mean_about_1us():
    from repro.workloads.memcached import UsrServiceSampler
    sampler = UsrServiceSampler(random.Random(5))
    samples = [sampler() for _ in range(50_000)]
    assert sum(samples) / len(samples) == pytest.approx(1000, rel=0.08)


def test_usr_sampler_draws_what_its_components_draw():
    """One lognormal draw with the chosen component's parameters
    gives the values, and leaves the RNG state, of calling the
    component: the coin flip, then ``LognormalService(...)()``."""
    from repro.workloads.memcached import UsrServiceSampler
    rng, twin = random.Random(2024), random.Random(2024)
    sampler = UsrServiceSampler(rng)
    get = LognormalService(median_ns=930, sigma=0.22, rng=twin)
    put = LognormalService(median_ns=1450, sigma=0.30, rng=twin)

    def composed():
        return get() if twin.random() < 0.97 else put()

    drawn = [sampler() for _ in range(10_000)]
    assert drawn == [composed() for _ in range(10_000)]
    assert rng.getstate() == twin.getstate()


def test_usr_payload_sampler_draws_what_its_helpers_drew():
    """The inlined payload draws equal the key-size, value-size and
    GET/SET-coin helpers they replaced, called in that order on a twin
    RNG, and leave the same RNG state."""
    from repro.workloads.memcached import UsrPayloadSampler
    rng, twin = random.Random(2024), random.Random(2024)
    sampler = UsrPayloadSampler(rng)

    def key_bytes():
        return twin.randint(16, 21)

    def value_bytes():
        if twin.random() < 0.95:
            return twin.randint(2, 30)
        return twin.randint(64, 512)

    def composed():
        key, value = key_bytes(), value_bytes()
        if twin.random() < 0.97:
            return 24 + key, 32 + value
        return 32 + key + value, 8

    drawn = [sampler() for _ in range(10_000)]
    assert drawn == [composed() for _ in range(10_000)]
    assert rng.getstate() == twin.getstate()
    # Both value branches and both request kinds were exercised.
    assert {out for _, out in drawn} & {8}
    assert max(out for _, out in drawn) > 32 + 30
