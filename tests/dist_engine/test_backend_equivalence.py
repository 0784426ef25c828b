"""NumpyBackend vs SharedMemBackend: byte-identical kernels and runs.

The backend layer (:mod:`repro.dist.backend`) is a wall-clock optimisation,
not a re-modelling: every kernel of every backend must return exactly the
bytes of the numpy reference implementation, and an end-to-end sort must
produce the same outputs, clocks, phase breakdowns and traffic counters
regardless of which backend executed it.  These tests force the shared-memory
backend to shard every call (``workers=2, min_parallel_elements=0``) so the
multiprocess merge paths are exercised even on the tiny arrays Hypothesis
generates.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import AMSConfig, RLMConfig
from repro.core.runner import run_on_machine
from repro.dist import flatops
from repro.dist.backend import (
    NumpyBackend,
    SharedMemBackend,
    get_backend,
    use_backend,
)
from repro.machine.spec import laptop_like
from repro.sim.machine import SimulatedMachine
from repro.workloads.generators import WORKLOADS, per_pe_workload

COUNTER_FIELDS = (
    "messages_sent",
    "messages_received",
    "words_sent",
    "words_received",
    "collective_ops",
    "exchange_ops",
)


@pytest.fixture(scope="module")
def sharded():
    """A shared-memory backend forced to shard every single call."""
    backend = SharedMemBackend(workers=2, min_parallel_elements=0)
    yield backend
    backend.close()


REFERENCE = NumpyBackend()


def assert_identical(a: np.ndarray, b: np.ndarray, what: str) -> None:
    assert a.dtype == b.dtype, f"{what}: dtype {a.dtype} != {b.dtype}"
    assert a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}"
    assert np.array_equal(a, b), f"{what}: values differ"


# ---------------------------------------------------------------------------
# Hypothesis strategies: ragged CSR layouts with empty segments and
# duplicate-heavy values.
# ---------------------------------------------------------------------------
def csr_layout(draw, max_segments=10, max_len=24, high=12):
    """A ragged CSR (values, offsets) pair; ``high`` small → many duplicates."""
    sizes = draw(
        st.lists(st.integers(0, max_len), min_size=1, max_size=max_segments)
    )
    offsets = np.concatenate([[0], np.cumsum(np.asarray(sizes, dtype=np.int64))])
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    values = rng.integers(0, high, size=int(offsets[-1]), dtype=np.int64)
    return values, offsets


class TestKernelOracles:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_segmented_sort_values(self, sharded, data):
        values, offsets = csr_layout(data.draw)
        expect = REFERENCE.segmented_sort_values(values, offsets)
        got = sharded.segmented_sort_values(values, offsets)
        assert_identical(expect, got, "segmented_sort_values")

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_segmented_searchsorted(self, sharded, data):
        values, offsets = csr_layout(data.draw)
        values = REFERENCE.segmented_sort_values(values, offsets)
        n_seg = offsets.size - 1
        n_q = data.draw(st.integers(0, 30))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        queries = rng.integers(-2, 14, size=n_q)
        query_seg = rng.integers(0, n_seg, size=n_q)
        side = data.draw(
            st.sampled_from(["left", "right", "mask"])
        )
        if side == "mask":
            side = rng.integers(0, 2, size=n_q).astype(bool)
        expect = REFERENCE.segmented_searchsorted(
            values, offsets, queries, query_seg, side=side
        )
        got = sharded.segmented_searchsorted(
            values, offsets, queries, query_seg, side=side
        )
        assert_identical(expect, got, "segmented_searchsorted")

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_segmented_searchsorted_windowed(self, sharded, data):
        values, offsets = csr_layout(data.draw)
        values = REFERENCE.segmented_sort_values(values, offsets)
        n_seg = offsets.size - 1
        n_q = data.draw(st.integers(0, 20))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        queries = rng.integers(-2, 14, size=n_q)
        query_seg = rng.integers(0, n_seg, size=n_q)
        seg_sizes = (offsets[1:] - offsets[:-1])[query_seg]
        lo = (rng.random(n_q) * (seg_sizes + 1)).astype(np.int64)
        hi = lo + (rng.random(n_q) * (seg_sizes - lo + 1)).astype(np.int64)
        expect = REFERENCE.segmented_searchsorted(
            values, offsets, queries, query_seg, side="right", lo=lo, hi=hi
        )
        got = sharded.segmented_searchsorted(
            values, offsets, queries, query_seg, side="right", lo=lo, hi=hi
        )
        assert_identical(expect, got, "segmented_searchsorted windowed")

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_blockwise_searchsorted(self, sharded, data):
        values, offsets = csr_layout(data.draw)
        values = REFERENCE.segmented_sort_values(values, offsets)
        n_seg = offsets.size - 1
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        q_sizes = rng.integers(0, 12, size=n_seg)
        query_offsets = np.concatenate([[0], np.cumsum(q_sizes)])
        queries = rng.integers(-2, 14, size=int(query_offsets[-1]))
        side = data.draw(st.sampled_from(["left", "right"]))
        expect = REFERENCE.blockwise_searchsorted(
            values, offsets, queries, query_offsets, side=side
        )
        got = sharded.blockwise_searchsorted(
            values, offsets, queries, query_offsets, side=side
        )
        assert_identical(expect, got, "blockwise_searchsorted")

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_ragged_bincount(self, sharded, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        n_seg = data.draw(st.integers(1, 8))
        nbins = rng.integers(0, 6, size=n_seg)
        key_offsets = np.concatenate([[0], np.cumsum(nbins)])
        n = data.draw(st.integers(0, 60))
        seg = rng.integers(0, n_seg, size=n)
        seg = seg[nbins[seg] > 0]
        key = (rng.random(seg.size) * nbins[seg]).astype(np.int64)
        expect = REFERENCE.ragged_bincount(seg, key, key_offsets)
        got = sharded.ragged_bincount(seg, key, key_offsets)
        assert_identical(expect, got, "ragged_bincount")

    @given(st.integers(0, 2**31 - 1), st.integers(0, 80), st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_bincount(self, sharded, seed, n, high):
        rng = np.random.default_rng(seed)
        key = rng.integers(0, high, size=n)
        minlength = int(rng.integers(0, 2 * high))
        expect = REFERENCE.bincount(key, minlength=minlength)
        got = sharded.bincount(key, minlength=minlength)
        assert_identical(expect, got, "bincount")

    def test_bincount_weighted_falls_back(self, sharded):
        rng = np.random.default_rng(0)
        key = rng.integers(0, 9, size=200)
        w = rng.random(200)
        expect = REFERENCE.bincount(key, minlength=16, weights=w)
        got = sharded.bincount(key, minlength=16, weights=w)
        assert_identical(expect, got, "bincount weighted")

    @given(st.integers(0, 2**31 - 1), st.integers(0, 120), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_stable_key_argsort(self, sharded, seed, n, bound):
        rng = np.random.default_rng(seed)
        key = rng.integers(0, bound, size=n)
        expect = REFERENCE.stable_key_argsort(key, bound)
        got = sharded.stable_key_argsort(key, bound)
        assert_identical(expect, got, "stable_key_argsort")

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(0, 120),
        st.integers(1, 12),
        st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_stable_two_key_argsort(self, sharded, seed, n, mb, nb):
        rng = np.random.default_rng(seed)
        major = rng.integers(0, mb, size=n)
        minor = rng.integers(0, nb, size=n)
        expect = REFERENCE.stable_two_key_argsort(major, minor, mb, nb)
        got = sharded.stable_two_key_argsort(major, minor, mb, nb)
        assert_identical(expect, got, "stable_two_key_argsort")

    @given(st.integers(0, 2**31 - 1), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_gather(self, sharded, seed, n):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1000, size=max(n, 1))
        indices = rng.integers(0, values.size, size=n)
        expect = REFERENCE.gather(values, indices)
        got = sharded.gather(values, indices)
        assert_identical(expect, got, "gather")

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_take_ranges(self, sharded, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        values = rng.integers(0, 1000, size=80)
        k = data.draw(st.integers(0, 12))
        lengths = rng.integers(0, 10, size=k)
        starts = rng.integers(0, values.size - 9, size=k) if k else np.empty(
            0, dtype=np.int64
        )
        expect = REFERENCE.take_ranges(values, starts, lengths)
        got = sharded.take_ranges(values, starts, lengths)
        assert_identical(expect, got, "take_ranges")

    def test_take_ranges_coalesced_runs(self, sharded):
        """Adjacent runs long enough for the slice copy, zero-length ranges
        between them, a reversed block and overlaps, sharded over workers."""
        values = np.arange(20_000, dtype=np.int64) * 3
        cuts = np.array([0, 700, 700, 4000, 9000, 9000, 12_500], dtype=np.int64)
        starts = np.concatenate([cuts[:-1], [15_000, 14_000, 13_000, 0, 19_999]])
        lengths = np.concatenate([np.diff(cuts), [1000, 1000, 1000, 20_000, 1]])
        expect = values[flatops.concat_ranges(starts, lengths)]
        for backend in (REFERENCE, sharded):
            got = backend.take_ranges(values, starts, lengths)
            assert_identical(expect, got, "take_ranges")

    def test_forced_backend_really_shards(self, sharded):
        """Large calls must actually hit the worker pool, not the fallback."""
        rng = np.random.default_rng(7)
        values = rng.integers(0, 50, size=100_000)
        offsets = np.array([0, 40_000, 40_000, 100_000], dtype=np.int64)
        sharded.segmented_sort_values(values, offsets)
        sharded.stable_key_argsort(rng.integers(0, 64, size=100_000), 64)
        stats = sharded.stats()
        assert stats["segmented_sort_values"]["sharded"] > 0
        assert stats["stable_key_argsort"]["sharded"] > 0

    def test_float_values_supported(self, sharded):
        rng = np.random.default_rng(3)
        values = rng.random(5000)
        offsets = np.array([0, 1200, 1200, 5000], dtype=np.int64)
        expect = REFERENCE.segmented_sort_values(values, offsets)
        got = sharded.segmented_sort_values(values, offsets)
        assert_identical(expect, got, "segmented_sort_values float")


# ---------------------------------------------------------------------------
# Validation parity: the sharded backend must reject exactly what the
# reference rejects, before any worker sees the call.
# ---------------------------------------------------------------------------
class TestValidationParity:
    def test_searchsorted_window_out_of_range(self, sharded):
        values = np.arange(10)
        offsets = np.array([0, 10])
        q = np.array([5])
        seg = np.array([0])
        with pytest.raises(IndexError):
            sharded.segmented_searchsorted(
                values, offsets, q, seg, lo=np.array([4]), hi=np.array([20])
            )

    def test_searchsorted_bad_segment(self, sharded):
        with pytest.raises(IndexError):
            sharded.segmented_searchsorted(
                np.arange(4), np.array([0, 4]), np.array([1]), np.array([3])
            )

    def test_ragged_bincount_key_out_of_range(self, sharded):
        with pytest.raises((IndexError, ValueError)):
            sharded.ragged_bincount(
                np.array([0]), np.array([5]), np.array([0, 2])
            )

    def test_blockwise_bad_offsets(self, sharded):
        with pytest.raises(ValueError):
            sharded.blockwise_searchsorted(
                np.arange(4), np.array([0, 2, 4]), np.array([1]), np.array([0, 1])
            )


# ---------------------------------------------------------------------------
# End-to-end: whole sorts must be byte-identical across backends.
# ---------------------------------------------------------------------------
def run_with(backend, algorithm, config, p, data, seed):
    machine = SimulatedMachine(p, spec=laptop_like(), seed=seed)
    result = run_on_machine(
        machine, [d.copy() for d in data], algorithm=algorithm,
        config=config, backend=backend,
    )
    return machine, result


def assert_runs_identical(backend_b, algorithm, config, p, data, seed=0):
    m_a, r_a = run_with("numpy", algorithm, config, p, data, seed)
    m_b, r_b = run_with(backend_b, algorithm, config, p, data, seed)
    assert m_a.backend_used == "numpy"
    assert m_b.backend_used == "sharedmem"
    for i, (x, y) in enumerate(zip(r_a.output, r_b.output)):
        assert np.array_equal(x, y), f"output of PE {i} differs"
    assert r_a.total_time == r_b.total_time
    assert r_a.phase_times == r_b.phase_times
    assert r_a.traffic == r_b.traffic
    assert np.array_equal(m_a.clock, m_b.clock)
    for phase in m_a.breakdown.phases():
        assert np.array_equal(
            m_a.breakdown.per_pe(phase), m_b.breakdown.per_pe(phase)
        ), f"phase {phase!r} differs"
    for field in COUNTER_FIELDS:
        assert np.array_equal(
            getattr(m_a.counters, field), getattr(m_b.counters, field)
        ), f"counter {field} differs"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("p", [16, 64])
def test_ams_identical_across_backends(sharded, workload, p):
    data = per_pe_workload(workload, p, 60, seed=p)
    config = AMSConfig(levels=2, node_size=4)
    assert_runs_identical(sharded, "ams", config, p, data, seed=p)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("p", [16, 64])
def test_rlm_identical_across_backends(sharded, workload, p):
    data = per_pe_workload(workload, p, 60, seed=p + 1)
    config = RLMConfig(levels=2, node_size=4)
    assert_runs_identical(sharded, "rlm", config, p, data, seed=p)


def test_three_level_ams_identical(sharded):
    data = per_pe_workload("uniform", 27, 80, seed=3)
    config = AMSConfig(levels=3, node_size=2)
    assert_runs_identical(sharded, "ams", config, 27, data, seed=3)


# ---------------------------------------------------------------------------
# Registry / selection mechanics.
# ---------------------------------------------------------------------------
class TestBackendSelection:
    def test_get_backend_specs(self):
        assert get_backend("numpy").name == "numpy"
        b = get_backend("sharedmem")
        assert b.name == "sharedmem"
        assert get_backend("sharedmem") is b  # singleton per spec
        b4 = get_backend("sharedmem:4")
        assert b4.workers == 4

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            get_backend("warp")
        with pytest.raises(ValueError):
            get_backend("sharedmem:zero")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sharedmem")
        flatops._BACKEND = None  # force re-resolution
        try:
            assert get_backend(None).name == "sharedmem"
        finally:
            monkeypatch.delenv("REPRO_BACKEND")
            flatops._BACKEND = None

    def test_use_backend_restores(self, sharded):
        before = flatops._active_backend()
        with use_backend(sharded) as active:
            assert active is sharded
            assert flatops._active_backend() is sharded
        assert flatops._active_backend() is before

    def test_dispatch_goes_through_backend(self, sharded):
        rng = np.random.default_rng(11)
        key = rng.integers(0, 32, size=50_000)
        with use_backend(sharded):
            calls_before = sum(
                v["sharded"] + v["inline"]
                for k, v in sharded.stats().items() if k != "supervisor"
            )
            flatops.stable_key_argsort(key, 32)
            calls_after = sum(
                v["sharded"] + v["inline"]
                for k, v in sharded.stats().items() if k != "supervisor"
            )
        assert calls_after > calls_before

    def test_machine_default_backend(self, sharded):
        data = per_pe_workload("uniform", 8, 40, seed=5)
        machine = SimulatedMachine(8, spec=laptop_like(), seed=5, backend=sharded)
        run_on_machine(machine, data, algorithm="ams",
                       config=AMSConfig(node_size=2))
        assert machine.backend_used == "sharedmem"


# ---------------------------------------------------------------------------
# take_ranges input validation: one check in the dispatcher, so every
# backend rejects the same ranges with the same message.
# ---------------------------------------------------------------------------
BAD_RANGES = [
    ([-3], [2], ValueError, "take_ranges: negative range start"),
    ([2, 5], [-1, 2], ValueError, "take_ranges: negative range length"),
    ([8], [5], IndexError, "take_ranges: range runs past the end of values"),
    ([0, 11], [3, 0], IndexError, "take_ranges: range runs past the end of values"),
    ([[1]], [[2]], ValueError, "take_ranges: starts and lengths must be"),
    ([1, 2], [1], ValueError, "take_ranges: starts and lengths must be"),
]


@pytest.mark.parametrize("which", ["numpy", "sharedmem"])
@pytest.mark.parametrize("starts,lengths,error,message", BAD_RANGES)
def test_take_ranges_rejects_bad_ranges(sharded, which, starts, lengths,
                                        error, message):
    backend = REFERENCE if which == "numpy" else sharded
    with use_backend(backend):
        with pytest.raises(error, match=message):
            flatops.take_ranges(np.arange(10), starts, lengths)


@pytest.mark.parametrize("which", ["numpy", "sharedmem"])
def test_take_ranges_accepts_ranges_up_to_the_end(sharded, which):
    backend = REFERENCE if which == "numpy" else sharded
    with use_backend(backend):
        got = flatops.take_ranges(np.arange(10), [7, 10, 0], [3, 0, 2])
    assert np.array_equal(got, [7, 8, 9, 0, 1])
