import time

import pytest

import hostspeed


def test_sampler_samples_even_a_short_job():
    with hostspeed.Sampler() as sampler:
        pass
    assert len(sampler.samples) >= 1
    assert all(s > 0 for s in sampler.samples)


def test_sampler_samples_every_period_until_exit():
    with hostspeed.Sampler() as sampler:
        time.sleep(5 * hostspeed.PERIOD_S)
    assert 3 <= len(sampler.samples) <= 7


def test_scale_reads_times_at_the_reference_speed():
    assert hostspeed.scale([hostspeed.REF_S] * 3) == pytest.approx(1.0)
    # a host twice as slow as the reference halves the times it measured
    assert hostspeed.scale([2 * hostspeed.REF_S, 2 * hostspeed.REF_S]) == pytest.approx(0.5)
