"""Property tests for every kernel in :mod:`repro.dist.flatops`.

Each kernel is checked against a brute-force per-segment oracle built from
plain Python loops and ``np.searchsorted``/``np.bincount`` on individual
segments, over Hypothesis-generated ragged layouts (empty segments, empty
queries, duplicate-heavy values, narrow and wide key bounds).  The flat
lockstep engine is nothing but compositions of these kernels, so pinning
them here pins the engine's data plane independently of the simulator.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dist import flatops
from repro.dist.flatops import (
    blockwise_searchsorted,
    concat_ranges,
    map_by_unique,
    ragged_bincount,
    segment_ids,
    segmented_searchsorted,
    segmented_sort_values,
    split_intervals,
    stable_key_argsort,
    stable_two_key_argsort,
    take_ranges,
)

# ----------------------------------------------------------------------
# Shared strategies
# ----------------------------------------------------------------------

segment_sizes = st.lists(st.integers(0, 12), min_size=1, max_size=8)


def _layout(sizes):
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(np.asarray(sizes, dtype=np.int64), out=offsets[1:])
    return offsets


class TestSegmentIds:
    @given(segment_sizes)
    @settings(max_examples=60, deadline=None)
    def test_matches_repeat(self, sizes):
        offsets = _layout(sizes)
        expected = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        assert np.array_equal(segment_ids(offsets), expected)


class TestConcatRanges:
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 6)),
                    min_size=0, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_range_loop(self, ranges):
        starts = np.array([r[0] for r in ranges], dtype=np.int64)
        lengths = np.array([r[1] for r in ranges], dtype=np.int64)
        expected = np.concatenate(
            [np.arange(s, s + l) for s, l in ranges] or
            [np.empty(0, dtype=np.int64)]
        )
        assert np.array_equal(concat_ranges(starts, lengths), expected)


@st.composite
def range_sets(draw):
    """A buffer length and ranges inside it, built from groups of ranges:
    adjacent (coalescible) runs with zero-length ones interleaved, the
    same runs reversed, one run covering the whole buffer, and random
    (overlapping, repeated) ranges."""
    n = draw(st.integers(0, 700))
    starts, lengths = [], []
    for kind in draw(st.lists(
        st.sampled_from(["adjacent", "reversed", "whole", "random"]),
        max_size=5,
    )):
        if kind == "whole":
            starts.append(0)
            lengths.append(n)
            continue
        if kind == "random":
            for _ in range(draw(st.integers(1, 6))):
                a = draw(st.integers(0, n))
                starts.append(a)
                lengths.append(draw(st.integers(0, n - a)))
            continue
        a = draw(st.integers(0, n))
        b = draw(st.integers(a, n))
        cuts = sorted(draw(st.lists(st.integers(a, b), max_size=6)))
        points = [a] + cuts + [b]  # repeated cuts give zero-length ranges
        pieces = list(zip(points[:-1], np.diff(points).tolist()))
        if kind == "reversed":
            pieces.reverse()
        starts.extend(start for start, _ in pieces)
        lengths.extend(length for _, length in pieces)
    return (n, np.asarray(starts, dtype=np.int64),
            np.asarray(lengths, dtype=np.int64))


class TestTakeRanges:
    """``take_ranges`` against ``values[concat_ranges(...)]`` on both copy
    paths: run-by-run slices (cutoff 1), one index plane (cutoff 2**62)
    and the default choice between them."""

    @pytest.mark.parametrize("cutoff", [1, flatops._RUN_COPY_MIN_MEAN, 2 ** 62])
    @given(range_sets())
    @settings(max_examples=80, deadline=None)
    def test_matches_concat_ranges_gather(self, cutoff, case):
        n, starts, lengths = case
        values = np.arange(n, dtype=np.int64) * 7 - 3
        before = values.copy()
        with mock.patch.object(flatops, "_RUN_COPY_MIN_MEAN", cutoff):
            got = take_ranges(values, starts, lengths)
        expected = values[concat_ranges(starts, lengths)]
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        # A fresh array: writing into it must not reach the source buffer.
        got[...] = -1
        assert np.array_equal(values, before)


def _search_case(data):
    """A CSR layout of sorted boundaries plus >= 4096 grouped queries."""
    nseg = data.draw(st.integers(2, 48))
    regime = data.draw(st.sampled_from(
        ["duplicates", "cell_edges", "near_max", "near_min", "straddle"]
    ))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    sizes = rng.integers(0, 40, nseg)
    sizes[rng.random(nseg) < 0.25] = 0  # empty segments
    sizes[rng.integers(nseg)] += 1
    segs = []
    for size in sizes.tolist():
        if regime == "duplicates":
            seg = rng.integers(0, 16, size)
        elif regime == "cell_edges":
            # Multiples of 2**t (minus 0 or 1) off one base: boundaries on a
            # cell's lowest and highest value, whatever the cell shift.
            t = int(rng.integers(1, 21))
            base = int(rng.integers(-(2 ** 40), 2 ** 40))
            seg = base + rng.integers(0, 64, size) * 2 ** t - rng.integers(0, 2, size)
        else:
            near_max = regime == "near_max" or (
                regime == "straddle" and rng.random() < 0.5
            )
            span = rng.integers(0, 2 ** int(rng.integers(1, 61)), size)
            seg = (2 ** 62 - 1) - span if near_max else -(2 ** 62) + 1 + span
        segs.append(np.sort(np.asarray(seg, dtype=np.int64)))
    values = np.concatenate(segs)
    offsets = _layout(sizes.tolist())
    qcounts = rng.integers(0, 2 * 4096 // nseg + 1, nseg)
    qcounts[rng.random(nseg) < 0.25] = 0  # empty query blocks
    qcounts[rng.integers(nseg)] += max(0, 4096 - int(qcounts.sum()))
    nq = int(qcounts.sum())
    lo, hi = int(values.min()), int(values.max())
    queries = rng.integers(lo - 3, hi + 4, nq, dtype=np.int64)
    on_boundary = rng.random(nq) < 0.4
    queries[on_boundary] = rng.choice(values, int(on_boundary.sum())) + \
        rng.integers(-1, 2, int(on_boundary.sum()))
    return regime, values, offsets, queries, _layout(qcounts.tolist())


class TestBatchedRadixSearch:
    """The batched radix-table search (``_bucketize_batched``), which
    :func:`blockwise_searchsorted` only takes from 4096 queries on, against
    per-segment ``np.searchsorted``."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_segment_searchsorted(self, data):
        regime, values, offsets, queries, q_offsets = _search_case(data)
        for side in ("left", "right"):
            expected = np.concatenate([
                np.searchsorted(values[offsets[s]:offsets[s + 1]],
                                queries[q_offsets[s]:q_offsets[s + 1]], side=side)
                for s in range(offsets.size - 1)
            ]).astype(np.int64)
            got = flatops._bucketize_batched(
                values, offsets, queries, q_offsets, side
            )
            # Keys straddling both ends overflow the cell arithmetic and
            # fall back; every other regime must take the batched path.
            if regime != "straddle":
                assert got is not None
            if got is not None:
                assert np.array_equal(got, expected)
            assert np.array_equal(
                blockwise_searchsorted(values, offsets, queries, q_offsets,
                                       side=side),
                expected,
            )


class TestStableArgsorts:
    @given(st.lists(st.integers(0, 7), max_size=40), st.integers(8, 2 ** 20))
    @settings(max_examples=60, deadline=None)
    def test_single_key_matches_stable_argsort(self, keys, bound):
        key = np.asarray(keys, dtype=np.int64)
        expected = np.argsort(key, kind="stable")
        assert np.array_equal(stable_key_argsort(key, bound), expected)

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=40),
        st.sampled_from([6, 300, 70_000, 2 ** 20]),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_key_matches_lexsort(self, pairs, bound):
        major = np.asarray([p[0] for p in pairs], dtype=np.int64)
        minor = np.asarray([p[1] for p in pairs], dtype=np.int64)
        expected = np.argsort(major * 6 + minor, kind="stable")
        assert np.array_equal(
            stable_two_key_argsort(major, minor, bound, 6), expected
        )


class TestSegmentedSort:
    @given(segment_sizes, st.integers(0, 5), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_segment_sort(self, sizes, high, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, high + 1, size=int(sum(sizes)))
        offsets = _layout(sizes)
        got = segmented_sort_values(values, offsets)
        expected = np.concatenate(
            [np.sort(values[offsets[i]:offsets[i + 1]], kind="stable")
             for i in range(len(sizes))] or [values]
        ) if values.size else values
        assert np.array_equal(got, expected)

    # Byte oracle: ``array_equal`` treats -0.0 == +0.0 (and ignores NaN
    # payloads), so it cannot see a sort that reorders equal-comparing
    # values with different bytes.
    @staticmethod
    def _assert_bytes_match_stable_sort(values, offsets):
        got = segmented_sort_values(values, offsets)
        expected = np.concatenate(
            [np.sort(values[offsets[i]:offsets[i + 1]], kind="stable")
             for i in range(offsets.size - 1)]
        )
        assert got.dtype == values.dtype
        assert got.tobytes() == expected.tobytes()

    @staticmethod
    def _full_range(rng, dt, n):
        info = np.iinfo(np.uint8 if dt is np.bool_ else dt)
        return rng.integers(info.min, info.max, size=n, endpoint=True,
                            dtype=info.dtype).astype(dt)

    @given(
        st.sampled_from([np.int64, np.int32, np.uint8, np.bool_]),
        st.lists(st.integers(0, 80), min_size=1, max_size=70),
        st.integers(0, 1000),
    )
    @settings(max_examples=80, deadline=None)
    def test_integer_dtypes_full_range_bytes(self, dt, sizes, seed):
        values = self._full_range(np.random.default_rng(seed), dt, sum(sizes))
        self._assert_bytes_match_stable_sort(values, _layout(sizes))

    @given(
        st.sampled_from([np.int64, np.int32, np.uint8, np.bool_]),
        st.integers(1, 63),
        st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_loop_branch_integer_dtypes(self, dt, p, seed):
        # p < 64 with at least 4 elements per segment: the per-slice loop.
        rng = np.random.default_rng(seed)
        sizes = rng.integers(4, 40, size=p)
        values = self._full_range(rng, dt, int(sizes.sum()))
        self._assert_bytes_match_stable_sort(values, _layout(sizes))

    @given(
        st.integers(1, 130),
        st.integers(4, 12),
        st.booleans(),
        st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_float_signed_zeros_and_nans_keep_stable_bytes(
        self, p, seg_len, with_nan, seed
    ):
        # Covers the loop (p < 64, or NaNs present) and the padded
        # rectangle (p >= 64 without NaNs); both must keep -0.0/+0.0 and
        # NaN payloads in their input order.
        rng = np.random.default_rng(seed)
        nan_a = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), np.float64)
        nan_b = np.frombuffer(np.uint64(0xFFF8000000000002).tobytes(), np.float64)
        pool = [-0.0, 0.0, 1.5, -2.0] + ([nan_a[0], nan_b[0]] if with_nan else [])
        sizes = rng.integers(seg_len // 2, seg_len + 1, size=p)
        values = rng.choice(np.array(pool), size=int(sizes.sum()))
        self._assert_bytes_match_stable_sort(values, _layout(sizes))


class TestSplitIntervals:
    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=6),
        st.lists(st.integers(0, 25), max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_intervals_partition_and_respect_cuts(self, piece_sizes, cuts):
        bounds = _layout(piece_sizes)
        total = int(bounds[-1])
        cuts_arr = np.asarray(cuts, dtype=np.int64)
        piece_idx, start, length, abs_start = split_intervals(
            bounds, cuts_arr, total
        )
        # Intervals tile [0, total) in order without gaps.
        assert int(length.sum()) == total
        assert np.all(length > 0)
        assert np.array_equal(abs_start, np.cumsum(length) - length)
        # Every interval lies inside its piece and crosses no boundary.
        for pi, s, ln, ab in zip(piece_idx, start, length, abs_start):
            assert bounds[pi] + s == ab
            assert bounds[pi] <= ab and ab + ln <= bounds[pi + 1]
            for c in cuts_arr:
                if 0 < c < total:
                    assert not (ab < c < ab + ln)


class TestSegmentedSearchsorted:
    @given(
        segment_sizes,
        st.lists(st.tuples(st.integers(-2, 14), st.booleans()), max_size=12),
        st.integers(0, 9),
        st.integers(0, 1000),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_segment_searchsorted(self, sizes, queries, high, seed):
        rng = np.random.default_rng(seed)
        segs = [np.sort(rng.integers(0, high + 1, size=s)) for s in sizes]
        values = np.concatenate(segs) if sum(sizes) else np.empty(0, np.int64)
        offsets = _layout(sizes)
        q = np.asarray([x[0] for x in queries])
        right = np.asarray([x[1] for x in queries], dtype=bool)
        seg_of = rng.integers(0, len(sizes), size=len(queries))
        got = segmented_searchsorted(values, offsets, q, seg_of, side=right)
        expected = np.asarray([
            np.searchsorted(segs[s], v, side="right" if r else "left")
            for v, s, r in zip(q, seg_of, right)
        ], dtype=np.int64)
        assert np.array_equal(got, expected)

    @given(segment_sizes, st.integers(0, 4), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_windowed_search_equals_clipped_full_search(self, sizes, high, seed):
        rng = np.random.default_rng(seed)
        segs = [np.sort(rng.integers(0, high + 1, size=s)) for s in sizes]
        values = np.concatenate(segs) if sum(sizes) else np.empty(0, np.int64)
        offsets = _layout(sizes)
        nq = 8
        seg_of = rng.integers(0, len(sizes), size=nq)
        q = rng.integers(-1, high + 2, size=nq)
        lo = np.asarray([rng.integers(0, sizes[s] + 1) for s in seg_of])
        hi = np.asarray([rng.integers(lo[i], sizes[s] + 1)
                         for i, s in enumerate(seg_of)])
        for side in ("left", "right"):
            got = segmented_searchsorted(
                values, offsets, q, seg_of, side=side, lo=lo, hi=hi
            )
            full = np.asarray([
                np.searchsorted(segs[s], v, side=side)
                for v, s in zip(q, seg_of)
            ])
            assert np.array_equal(got, np.clip(full, lo, hi))


class TestBlockwiseSearchsorted:
    @given(segment_sizes, st.lists(st.integers(0, 8), min_size=1, max_size=8),
           st.integers(0, 6), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_matches_segmented_searchsorted(self, sizes, qcounts, high, seed):
        qcounts = (qcounts * len(sizes))[:len(sizes)]
        rng = np.random.default_rng(seed)
        segs = [np.sort(rng.integers(0, high + 1, size=s)) for s in sizes]
        values = np.concatenate(segs) if sum(sizes) else np.empty(0, np.int64)
        offsets = _layout(sizes)
        q_offsets = _layout(qcounts)
        queries = rng.integers(-1, high + 2, size=int(q_offsets[-1]))
        seg_of = np.repeat(np.arange(len(sizes), dtype=np.int64), qcounts)
        for side in ("left", "right"):
            got = blockwise_searchsorted(values, offsets, queries, q_offsets, side=side)
            expected = segmented_searchsorted(values, offsets, queries, seg_of, side=side)
            assert np.array_equal(got, expected)


class TestRaggedBincount:
    @given(segment_sizes, st.lists(st.integers(1, 5), min_size=1, max_size=8),
           st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_segment_bincount(self, item_counts, widths, seed):
        widths = (widths * len(item_counts))[:len(item_counts)]
        rng = np.random.default_rng(seed)
        key_offsets = _layout(widths)
        seg = np.repeat(np.arange(len(item_counts), dtype=np.int64), item_counts)
        key = np.asarray(
            [rng.integers(0, widths[s]) for s in seg], dtype=np.int64
        )
        got = ragged_bincount(seg, key, key_offsets)
        expected = np.concatenate([
            np.bincount(key[seg == s], minlength=widths[s])
            for s in range(len(item_counts))
        ])
        assert np.array_equal(got, expected)


class TestMapByUnique:
    @given(st.lists(st.integers(-50, 50), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_elementwise_application(self, values):
        arr = np.asarray(values, dtype=np.int64)
        fn = lambda m: float(m) * 0.25 + (1.0 if m > 0 else 0.0)
        got = map_by_unique(arr, fn)
        expected = np.asarray([fn(int(m)) for m in arr], dtype=np.float64)
        assert np.array_equal(got, expected)
