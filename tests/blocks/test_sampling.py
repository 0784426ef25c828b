"""Tests for :mod:`repro.blocks.sampling`."""

import hashlib

import numpy as np
import pytest

from repro.blocks.sampling import (
    SamplingParams,
    default_oversampling,
    draw_local_sample,
    draw_samples,
    draw_samples_flat,
    splitter_ranks,
)
from repro.dist.array import DistArray
from repro.dist.ctr_rng import CounterRNG


class TestSamplingParams:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SamplingParams(oversampling=0)
        with pytest.raises(ValueError):
            SamplingParams(overpartitioning=0)

    def test_num_buckets_and_splitters(self):
        params = SamplingParams(oversampling=2, overpartitioning=4)
        assert params.num_buckets(8) == 32
        assert params.num_splitters(8) == 31

    def test_samples_per_pe_paper_mode(self):
        params = SamplingParams(oversampling=12.0, overpartitioning=16, per_pe=True)
        assert params.samples_per_pe(p=512, r=32) == 192

    def test_samples_per_pe_theory_mode(self):
        params = SamplingParams(oversampling=2.0, overpartitioning=8, per_pe=False)
        # total sample a*b*r = 2*8*16 = 256 spread over 64 PEs -> 4 per PE
        assert params.samples_per_pe(p=64, r=16) == 4

    def test_total_samples(self):
        params = SamplingParams(oversampling=1.0, overpartitioning=4, per_pe=True)
        assert params.total_samples(p=10, r=2) == 40

    def test_paper_defaults(self):
        params = SamplingParams.paper_defaults(10**7)
        assert params.overpartitioning == 16
        assert params.oversampling == pytest.approx(1.6 * 7, rel=0.01)

    def test_theory_choice_scales_with_eps(self):
        tight = SamplingParams.theory(eps=0.01, r=64)
        loose = SamplingParams.theory(eps=0.5, r=64)
        assert tight.overpartitioning > loose.overpartitioning

    def test_theory_invalid_eps(self):
        with pytest.raises(ValueError):
            SamplingParams.theory(eps=0, r=4)

    def test_default_oversampling_monotone(self):
        assert default_oversampling(10**6) < default_oversampling(10**9)
        assert default_oversampling(1) == 1.0


class TestDrawSamples:
    def test_draw_local_sample_size(self):
        rng = np.random.default_rng(0)
        data = np.arange(100)
        sample = draw_local_sample(data, 10, rng)
        assert sample.size == 10
        assert np.all(np.isin(sample, data))

    def test_draw_from_empty(self):
        rng = np.random.default_rng(0)
        assert draw_local_sample(np.empty(0), 5, rng).size == 0

    def test_draw_more_than_available(self):
        rng = np.random.default_rng(0)
        sample = draw_local_sample(np.arange(3), 10, rng)
        assert sample.size == 10

    def test_zero_count(self):
        rng = np.random.default_rng(0)
        assert draw_local_sample(np.arange(5), 0, rng).size == 0

    def test_draw_samples_per_pe(self):
        params = SamplingParams(oversampling=2, overpartitioning=2, per_pe=True)
        data = [np.arange(50) for _ in range(4)]
        rng = CounterRNG(0)
        samples = draw_samples(
            data, params, p=4, r=2, rng=rng, level=0, pes=np.arange(4)
        )
        assert len(samples) == 4
        assert all(s.size == 4 for s in samples)
        assert all(np.isin(s, d).all() for s, d in zip(samples, data))

    def test_draw_samples_arity_check(self):
        params = SamplingParams()
        with pytest.raises(ValueError):
            draw_samples([np.arange(5)], params, p=2, r=2,
                         rng=CounterRNG(0), level=0, pes=np.arange(2))


#: (segment sizes, per-segment counts, sha256 of the drawn offsets + values).
#: The digests pin which elements are sampled: a change that moves any
#: sample must bump ``campaign.RNG_VERSION`` and regenerate the goldens.
PINNED_DRAWS = {
    # Empty segments (one with a non-zero count), unequal sizes, counts not
    # a multiple of 4: per-draw sizes differ and the block words are gathered.
    "ragged": (
        [0, 1, 2, 3, 5, 7, 0, 1000, 13, 4, 97, 0, 31],
        [3, 5, 1, 0, 6, 9, 4, 11, 2, 7, 13, 5, 10],
        "f5a5b25290e942bc95eb60f1d740bb1110545ba5025d06af577e2387c9a829e1",
    ),
    # Equal sizes: one scalar modulus for every draw.
    "equal_sizes": (
        [50] * 9,
        [6, 1, 7, 3, 5, 2, 9, 0, 11],
        "a615947a8e75e54f134c43e8f42f18a1f08ba1f1c070714d92716b88da1edc08",
    ),
    # Every count a multiple of 4: the block words are used in order.
    "whole_blocks": (
        [3, 0, 64, 17, 1, 250],
        [4, 8, 12, 4, 16, 8],
        "dd062898a47c5c2c368bd454aec667ea0a1c7a2d014953badbcceb0ebf119205",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_DRAWS))
def test_draw_samples_flat_bytes_are_pinned(case):
    sizes, counts, digest = PINNED_DRAWS[case]
    sizes = np.asarray(sizes, dtype=np.int64)
    values = np.random.default_rng(2015).integers(
        -(2 ** 62), 2 ** 62, int(sizes.sum())
    )
    out = draw_samples_flat(
        DistArray.from_sizes(values, sizes), np.asarray(counts),
        CounterRNG(12345), 2, np.arange(sizes.size) * 3 + 1,
    )
    got = hashlib.sha256(
        out.offsets.astype(np.int64).tobytes() + out.values.tobytes()
    ).hexdigest()
    assert got == digest


class TestSplitterRanks:
    def test_equidistant(self):
        ranks = splitter_ranks(100, 4)
        assert ranks.tolist() == [20, 40, 60, 80]

    def test_empty_cases(self):
        assert splitter_ranks(0, 4).size == 0
        assert splitter_ranks(100, 0).size == 0

    def test_clamped_to_range(self):
        ranks = splitter_ranks(3, 10)
        assert ranks.max() <= 2
        assert ranks.min() >= 0
