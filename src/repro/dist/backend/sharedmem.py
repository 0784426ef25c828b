"""Shared-memory multiprocess backend for the flat engine's kernels.

One simulated machine, many host cores: a persistent pool of worker
processes executes each element-scale kernel on a *shard* of the input —
a contiguous range of CSR segments, queries, ranges or elements — and the
shard results are merged deterministically, so every output is
byte-identical to :class:`~repro.dist.backend.numpy_backend.NumpyBackend`.

**No array copies between processes.**  All bulk data moves through one
growable file-backed ``mmap`` arena (``/dev/shm`` when available, so pages
live in RAM).  Per call the main process bump-allocates input and output
regions in the arena, memcpys the inputs in once, and sends the workers
only *pickled slice descriptors* — ``(offset, dtype, shape)`` triples plus
shard bounds, a few hundred bytes — over ``multiprocessing`` pipes.
Workers map the same file and read/write the regions in place.  A plain
file mapping sidesteps ``multiprocessing.shared_memory``'s
resource-tracker unlink races on Python <= 3.12 and keeps fork *and* spawn
start methods trivially correct (workers re-map by path and grow lazily
when a call's arena is larger than their current view).

**Partitioning rules** (the merge argument per kernel):

* ``segmented_sort_values`` / ``blockwise_searchsorted`` — shard by
  *segment ranges* (balanced by element/query count); segments are
  independent, so shard outputs are disjoint slices of the result and any
  per-shard strategy choice is invisible in the output values.
* ``segmented_searchsorted`` / ``gather`` / ``take_ranges`` — shard by
  *query/index/range ranges*; each output position depends only on its own
  query, so results are positionally exact.
* ``ragged_bincount`` / ``bincount`` — shard elements; each worker writes
  a private partial histogram and the main process sums them.  Counts are
  integers, so the sum is exact and order-independent (float weights fall
  back inline).
* ``stable_key_argsort`` (and the two-key form built on it) — two-round
  parallel counting sort: workers histogram their shard, the main process
  turns the ``(worker, key)`` count matrix into exclusive write starts,
  and workers scatter ``start[w, k] + local_rank`` — which reproduces
  exactly the unique stable permutation.

**Small-call cutoff.**  A pool round-trip costs ~0.1–0.5 ms; calls below
``min_parallel_elements`` (and kernels whose shapes make sharding
unprofitable, e.g. histograms with more bins than elements) run inline on
the numpy reference.  The flat engine's per-level control-plane math stays
inline this way; only the element-scale passes fan out.

The pool is lazy (no processes until the first sharded call) and
fork-aware: a process that inherits a backend across ``fork`` (campaign
workers) abandons the parent's pipes and builds its own pool on first use.

**Supervision.**  The processes live inside a
:class:`~repro.dist.backend.supervisor.SupervisedPool`: worker death or a
missed per-call deadline triggers respawn against the same arena file and
a bounded re-dispatch of the failed shard (kernels are pure, so the retry
is byte-identical).  If the pool keeps failing, the backend *degrades* —
it closes the pool and runs every further kernel inline on the numpy
reference, which is slower but still byte-identical; the demotion is
visible in :meth:`SharedMemBackend.stats` and
:meth:`SharedMemBackend.effective_name`.
"""

from __future__ import annotations

import atexit
import mmap
import os
import tempfile
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.chaos import get_chaos
from repro.dist import flatops
from repro.dist.backend.base import KernelBackend
from repro.dist.backend.numpy_backend import NumpyBackend
from repro.dist.backend.supervisor import (
    RECOVERY_COUNTERS,
    PoolFailureError,
    SupervisedPool,
)

_ALIGN = 64


def _aligned(nbytes: int) -> int:
    return (int(nbytes) + _ALIGN - 1) & ~(_ALIGN - 1)


class _Arena:
    """Growable file-backed shared scratch with a per-call bump allocator."""

    def __init__(self, capacity: int):
        shm_dir = "/dev/shm" if os.path.isdir("/dev/shm") else None
        fd, path = tempfile.mkstemp(prefix="repro-arena-", dir=shm_dir)
        self.fd = fd
        self.path = path
        self.size = 0
        self.mm: Optional[mmap.mmap] = None
        # Mappings are never closed while the backend lives: views from a
        # finished call may still be referenced, and file mappings of the
        # same pages stay coherent, so retiring old maps is safe and
        # closing them is not.
        self._retired: List[mmap.mmap] = []
        self._top = 0
        self._grow(capacity)

    def _grow(self, need: int) -> None:
        new = max(self.size, 1 << 22)
        while new < need:
            new *= 2
        if new == self.size:
            return
        os.ftruncate(self.fd, new)
        if self.mm is not None:
            self._retired.append(self.mm)
        self.mm = mmap.mmap(self.fd, new)
        self.size = new

    def begin(self, nbytes: int) -> None:
        """Start a call: reset the bump pointer, ensure capacity."""
        self._top = 0
        if nbytes > self.size:
            self._grow(nbytes)

    def _reserve(self, nbytes: int) -> int:
        off = self._top
        self._top = _aligned(off + int(nbytes))
        if self._top > self.size:  # begin() under-counted: a bug, fail loudly
            raise MemoryError("arena overflow: call did not pre-size its regions")
        return off

    def put(self, arr: np.ndarray) -> Tuple[int, str, Tuple[int, ...]]:
        """Copy an array into the arena; returns its descriptor."""
        arr = np.ascontiguousarray(arr)
        off = self._reserve(arr.nbytes)
        view = np.frombuffer(self.mm, dtype=arr.dtype, count=arr.size, offset=off)
        view[...] = arr.reshape(-1)
        return (off, arr.dtype.str, arr.shape)

    def alloc(self, shape, dtype) -> Tuple[np.ndarray, Tuple[int, str, Tuple[int, ...]]]:
        """Reserve an output region; returns ``(view, descriptor)``."""
        dt = np.dtype(dtype)
        shape = tuple(int(s) for s in (shape if isinstance(shape, tuple) else (shape,)))
        count = 1
        for s in shape:
            count *= s
        off = self._reserve(count * dt.itemsize)
        view = np.frombuffer(self.mm, dtype=dt, count=count, offset=off).reshape(shape)
        return view, (off, dt.str, shape)

    def close(self) -> None:
        for m in [self.mm, *self._retired]:
            if m is None:
                continue
            try:
                m.close()
            except BufferError:  # a caller still holds a view; the unlink below
                pass             # frees the pages once they drop it
        self.mm = None
        self._retired = []
        try:
            os.close(self.fd)
        except OSError:
            pass
        try:
            os.unlink(self.path)
        except OSError:
            pass


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _view(mm: mmap.mmap, desc) -> np.ndarray:
    off, dtype, shape = desc
    dt = np.dtype(dtype)
    count = 1
    for s in shape:
        count *= int(s)
    return np.frombuffer(mm, dtype=dt, count=count, offset=off).reshape(shape)


def _w_segmented_sort(mm, p) -> None:
    vals = _view(mm, p["values"])
    off = _view(mm, p["offsets"])
    out = _view(mm, p["out"])
    s0, s1 = p["s0"], p["s1"]
    lo, hi = int(off[s0]), int(off[s1])
    sub_off = off[s0:s1 + 1] - lo
    out[lo:hi] = flatops.segmented_sort_values_numpy(vals[lo:hi], sub_off)


def _w_segmented_searchsorted(mm, p) -> None:
    vals = _view(mm, p["values"])
    off = _view(mm, p["offsets"])
    out = _view(mm, p["out"])
    q0, q1 = p["q0"], p["q1"]
    side = p["side"]
    if side is None:
        side = _view(mm, p["side_arr"])[q0:q1]
    lo = p["lo"]
    hi = p["hi"]
    out[q0:q1] = flatops.segmented_searchsorted_numpy(
        vals, off,
        _view(mm, p["queries"])[q0:q1],
        _view(mm, p["query_seg"])[q0:q1],
        side=side,
        lo=None if lo is None else _view(mm, lo)[q0:q1],
        hi=None if hi is None else _view(mm, hi)[q0:q1],
    )


def _w_blockwise_searchsorted(mm, p) -> None:
    vals = _view(mm, p["values"])
    off = _view(mm, p["offsets"])
    qoff = _view(mm, p["query_offsets"])
    out = _view(mm, p["out"])
    s0, s1 = p["s0"], p["s1"]
    vlo = int(off[s0])
    qlo, qhi = int(qoff[s0]), int(qoff[s1])
    out[qlo:qhi] = flatops.blockwise_searchsorted_numpy(
        vals[vlo:int(off[s1])],
        off[s0:s1 + 1] - vlo,
        _view(mm, p["queries"])[qlo:qhi],
        qoff[s0:s1 + 1] - qlo,
        side=p["side"],
    )


def _w_bincount(mm, p) -> None:
    key = _view(mm, p["key"])[p["e0"]:p["e1"]]
    row = _view(mm, p["counts"])[p["row"]]
    row[...] = np.bincount(key, minlength=row.size)


def _w_ragged_bincount(mm, p) -> None:
    e0, e1 = p["e0"], p["e1"]
    seg = _view(mm, p["seg"])[e0:e1]
    key = _view(mm, p["key"])[e0:e1]
    key_offsets = _view(mm, p["key_offsets"])
    row = _view(mm, p["counts"])[p["row"]]
    row[...] = np.bincount(key_offsets[seg] + key, minlength=row.size)


def _w_rank_scatter(mm, p) -> None:
    e0, e1 = p["e0"], p["e1"]
    key = _view(mm, p["key"])[e0:e1]
    counts = _view(mm, p["counts"])[p["row"]]
    starts = _view(mm, p["starts"])[p["row"]]
    out = _view(mm, p["out"])
    order = flatops.stable_key_argsort_numpy(key, p["key_bound"])
    k_sorted = key[order]
    excl = np.cumsum(counts) - counts
    dest = starts[k_sorted] + (
        flatops.cached_arange(order.size) - excl[k_sorted]
    )
    out[dest] = order + e0


def _w_gather(mm, p) -> None:
    vals = _view(mm, p["values"])
    idx = _view(mm, p["indices"])[p["e0"]:p["e1"]]
    out = _view(mm, p["out"])
    out[p["e0"]:p["e1"]] = vals[idx]


def _w_take_ranges(mm, p) -> None:
    vals = _view(mm, p["values"])
    r0, r1 = p["r0"], p["r1"]
    starts = _view(mm, p["starts"])[r0:r1]
    lengths = _view(mm, p["lengths"])[r0:r1]
    out = _view(mm, p["out"])
    o0 = p["o0"]
    flatops.copy_ranges(vals, starts, lengths, out[o0:o0 + int(lengths.sum())])


def _w_debug_sleep(mm, p) -> None:
    # Test-only kernel: a worker that blocks for ``seconds`` without
    # touching the arena, so the supervisor's deadline/respawn path can be
    # exercised deterministically (no real kernel is this slow).
    # ``ignore_sigterm`` additionally makes the worker a *wedged* process
    # that shrugs off ``terminate()`` — the shutdown-escalation scenario.
    if p.get("ignore_sigterm"):
        import signal

        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(p["seconds"])


def _w_release_workspace(mm, p) -> None:
    # Each worker owns a private Python-level workspace arena (the fork
    # hook in repro.dist.workspace resets it at spawn); this drops its
    # pooled buffers so a released parent does not leave q workers pinning
    # their shard-sized high water.
    from repro.dist.workspace import get_arena

    get_arena().release()


_WORKER_KERNELS = {
    "debug_sleep": _w_debug_sleep,
    "release_workspace": _w_release_workspace,
    "segmented_sort": _w_segmented_sort,
    "segmented_searchsorted": _w_segmented_searchsorted,
    "blockwise_searchsorted": _w_blockwise_searchsorted,
    "bincount": _w_bincount,
    "ragged_bincount": _w_ragged_bincount,
    "rank_scatter": _w_rank_scatter,
    "gather": _w_gather,
    "take_ranges": _w_take_ranges,
}


def _worker_main(conn, arena_path: str) -> None:
    """Worker loop: map the arena, execute shard tasks until told to quit."""
    # Kernels running *inside* a worker must never dispatch back through
    # the backend layer (a nested pool would deadlock): pin this process's
    # dispatch to the in-process reference.
    flatops._BACKEND = NumpyBackend()
    f = open(arena_path, "r+b")
    mm: Optional[mmap.mmap] = None
    mapped = 0
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg is None:
                break
            name, arena_size, payload = msg
            try:
                if arena_size > mapped:
                    mm = mmap.mmap(f.fileno(), arena_size)
                    mapped = arena_size
                _WORKER_KERNELS[name](mm, payload)
                conn.send(("ok", None))
            except BaseException:
                conn.send(("err", traceback.format_exc()))
    finally:
        f.close()
        conn.close()


# ----------------------------------------------------------------------
# Shard geometry
# ----------------------------------------------------------------------
def _range_cuts(n: int, k: int) -> List[int]:
    """``k`` near-equal contiguous ranges of ``0..n`` (ends, k+1 entries)."""
    return [n * i // k for i in range(k + 1)]


def _weighted_cuts(prefix: np.ndarray, k: int) -> np.ndarray:
    """Cut ``len(prefix) - 1`` items into ``k`` runs balanced by weight.

    ``prefix`` is the items' inclusive weight prefix with a leading zero
    (e.g. a CSR offsets vector).  Returns ``k + 1`` monotone item indices.
    """
    m = int(prefix.size) - 1
    total = int(prefix[-1])
    targets = np.array([total * i // k for i in range(k + 1)], dtype=np.int64)
    cuts = np.searchsorted(prefix, targets, side="left").astype(np.int64)
    cuts[0] = 0
    cuts[-1] = m
    np.maximum.accumulate(cuts, out=cuts)
    return np.minimum(cuts, m)


class SharedMemBackend(KernelBackend):
    """Persistent worker pool sharding kernels over shared memory.

    Parameters
    ----------
    workers:
        Worker process count; defaults to the CPU affinity count (capped at
        8 — the kernels are memory-bound and stop scaling well past that).
    min_parallel_elements:
        Calls moving fewer elements than this run inline on the numpy
        reference (the pool round-trip would dominate).  The equivalence
        tests set it to 0 to force sharding on tiny inputs; the
        ``REPRO_SHM_CUTOFF`` environment variable overrides the default
        (so env-selected backends can be forced to shard small campaigns).
    arena_bytes:
        Initial arena capacity (grows geometrically on demand).
    call_timeout_s:
        Optional wall-clock deadline per dispatch round; a worker that
        misses it is killed, respawned and its shard retried.  ``None``
        (the default, overridable via ``REPRO_SHM_TIMEOUT``) waits for
        worker death only — kernels have no unbounded loops, so a healthy
        worker always answers.
    max_shard_retries:
        Re-dispatch budget per kernel call before the pool gives up and
        the call falls back inline.
    degrade_after:
        Consecutive pool failures after which the backend demotes itself
        to inline execution for the rest of its life (until ``close()``).
    """

    name = "sharedmem"

    def __init__(
        self,
        workers: Optional[int] = None,
        min_parallel_elements: Optional[int] = None,
        arena_bytes: int = 1 << 26,
        call_timeout_s: Optional[float] = None,
        max_shard_retries: int = 2,
        degrade_after: int = 3,
    ):
        if workers is None:
            try:
                workers = len(os.sched_getaffinity(0))
            except (AttributeError, OSError):
                workers = os.cpu_count() or 1
            workers = min(workers, 8)
        self.workers = max(1, int(workers))
        if min_parallel_elements is None:
            env_cutoff = os.environ.get("REPRO_SHM_CUTOFF", "").strip()
            if env_cutoff:
                try:
                    min_parallel_elements = int(env_cutoff)
                except ValueError:
                    raise ValueError(
                        f"bad REPRO_SHM_CUTOFF {env_cutoff!r}: must be an integer"
                    ) from None
            else:
                min_parallel_elements = 1 << 16
        self.min_parallel_elements = int(min_parallel_elements)
        if call_timeout_s is None:
            env_timeout = os.environ.get("REPRO_SHM_TIMEOUT", "").strip()
            if env_timeout:
                try:
                    call_timeout_s = float(env_timeout)
                except ValueError:
                    raise ValueError(
                        f"bad REPRO_SHM_TIMEOUT {env_timeout!r}: must be a number "
                        "of seconds"
                    ) from None
        self.call_timeout_s = call_timeout_s
        self.max_shard_retries = int(max_shard_retries)
        self.degrade_after = int(degrade_after)
        self._arena_bytes = int(arena_bytes)
        self._numpy = NumpyBackend()
        self._arena: Optional[_Arena] = None
        self._pool: Optional[SupervisedPool] = None
        self._pid: Optional[int] = None
        self._stats: Dict[str, Dict[str, int]] = {}
        self._degraded: Optional[str] = None
        self._consecutive_failures = 0
        self._inline_fallbacks = 0

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def is_parallel(self) -> bool:
        return self.workers > 1

    def _ensure_pool(self) -> None:
        if self._pool is not None:
            if self._pid == os.getpid():
                return
            # Inherited across fork: the pipes belong to the parent.
            # Abandon (never close) them and build a fresh pool here.
            self._pool = None
            self._arena = None
        self._arena = _Arena(self._arena_bytes)
        self._pool = SupervisedPool(
            workers=self.workers,
            arena_path=self._arena.path,
            worker_target=_worker_main,
            call_timeout=self.call_timeout_s,
            max_shard_retries=self.max_shard_retries,
            chaos=get_chaos(),
        )
        self._pid = os.getpid()
        atexit.register(self.close)

    def close(self) -> None:
        """Stop the workers and unlink the arena (pool restarts lazily).

        Shutdown escalates quit → join → ``terminate()`` → ``kill()`` in
        the supervisor, and the arena unlink is guaranteed even if worker
        teardown misbehaves — a wedged worker must not leak the /dev/shm
        file.  Degradation is also cleared: a re-opened pool starts fresh.
        """
        if self._pool is not None and self._pid == os.getpid():
            try:
                self._merge_pool_counters(self._pool)
                self._pool.close()
            finally:
                if self._arena is not None:
                    self._arena.close()
        elif self._arena is not None and self._pid == os.getpid():
            self._arena.close()
        self._pool = None
        self._arena = None
        self._degraded = None
        self._consecutive_failures = 0

    def _run(self, tasks: List[Tuple[int, str, dict]]) -> None:
        """Execute one round of shard tasks, one per distinct worker."""
        self._pool.run(tasks, self._arena.size)

    # ------------------------------------------------------------------
    # Supervision / degradation
    # ------------------------------------------------------------------
    def _supervised(
        self, kernel: str, attempt: Callable[[], np.ndarray],
        inline: Callable[[], np.ndarray],
    ) -> np.ndarray:
        """Run the sharded attempt with inline fallback and degradation.

        A :class:`PoolFailureError` (retry budget exhausted) or a spawn
        failure falls back to the inline reference — byte-identical by the
        backend contract — and counts toward degradation; after
        ``degrade_after`` consecutive pool failures the pool is closed for
        good and every further call goes straight inline.  Deterministic
        in-kernel exceptions (``WorkerKernelError``) propagate unchanged:
        they would reproduce on retry and must keep raising exactly like
        the inline reference's validation does.
        """
        if self._degraded is None:
            try:
                result = attempt()
            except (PoolFailureError, OSError) as exc:
                self._note_pool_failure(kernel, exc)
            else:
                self._consecutive_failures = 0
                self._count(kernel, True)
                return result
        self._inline_fallbacks += 1
        self._count(kernel, False)
        return inline()

    def _note_pool_failure(self, kernel: str, exc: BaseException) -> None:
        self._consecutive_failures += 1
        if self._consecutive_failures < self.degrade_after:
            return
        self._degraded = (
            f"{self._consecutive_failures} consecutive pool failures "
            f"(last: {kernel}: {exc})"
        )
        # Reap whatever is left of the pool but keep the degradation mark
        # (close() is what clears it): swap the state out first so close()
        # cannot recurse or reset the demotion.
        pool, arena = self._pool, self._arena
        self._pool = None
        self._arena = None
        if pool is not None:
            try:
                self._merge_pool_counters(pool)
                pool.close()
            finally:
                if arena is not None:
                    arena.close()

    @property
    def degraded(self) -> Optional[str]:
        """Why the backend demoted itself to inline execution, or ``None``."""
        return self._degraded

    def effective_name(self) -> str:
        if self._degraded is not None:
            return f"{self.name}:degraded->numpy"
        return self.name

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def _count(self, kernel: str, sharded: bool) -> None:
        entry = self._stats.setdefault(kernel, {"sharded": 0, "inline": 0})
        entry["sharded" if sharded else "inline"] += 1

    def _merge_pool_counters(self, pool: SupervisedPool) -> None:
        # Folded into ``_retired_counters`` so stats() survive pool closes
        # (degradation closes the pool but its recovery history must stay
        # visible).
        acc = getattr(self, "_retired_counters", None)
        if acc is None:
            acc = self._retired_counters = {}
        for key, value in pool.counters.items():
            acc[key] = acc.get(key, 0) + value

    def supervisor_stats(self) -> Dict[str, object]:
        """Recovery counters + degradation state (``stats()['supervisor']``)."""
        # Zero-seed every recovery counter so the stats schema is stable:
        # a healthy run reports 0s, not missing keys.
        counters: Dict[str, int] = {k: 0 for k in RECOVERY_COUNTERS}
        counters.update(getattr(self, "_retired_counters", {}))
        if self._pool is not None and self._pid == os.getpid():
            for key, value in self._pool.counters.items():
                counters[key] = counters.get(key, 0) + value
        chaos = get_chaos()
        if chaos is not None:
            for key, value in chaos.counters.items():
                counters[f"chaos_{key}"] = value
        out: Dict[str, object] = dict(counters)
        out["inline_fallbacks"] = self._inline_fallbacks
        out["degraded"] = self._degraded
        return out

    def stats(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {
            k: dict(v) for k, v in self._stats.items()
        }
        out["supervisor"] = self.supervisor_stats()  # type: ignore[assignment]
        return out

    def release_workspace(self) -> None:
        """Release the parent arena and every live worker's private arena."""
        super().release_workspace()
        if self._pool is None or self._pid != os.getpid():
            return
        try:
            self._run([
                (widx, "release_workspace", {})
                for widx in range(self.workers)
            ])
        except PoolFailureError:
            # Best-effort memory hook: a dying pool has nothing to release.
            pass

    def describe(self) -> str:
        extra = ", degraded" if self._degraded is not None else ""
        return f"sharedmem(workers={self.workers}{extra})"

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def segmented_sort_values(
        self, values: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        values = np.asarray(values)
        offsets = np.asarray(offsets, dtype=np.int64)
        nseg = int(offsets.size) - 1
        if (
            values.size < self.min_parallel_elements
            or self.workers <= 1
            or nseg < 2
            or values.ndim != 1
            or values.dtype.hasobject
        ):
            self._count("segmented_sort_values", False)
            return self._numpy.segmented_sort_values(values, offsets)
        def attempt() -> np.ndarray:
            self._ensure_pool()
            arena = self._arena
            arena.begin(
                _aligned(values.nbytes) + _aligned(offsets.nbytes)
                + _aligned(values.nbytes) + 4 * _ALIGN
            )
            d_vals = arena.put(values)
            d_off = arena.put(offsets)
            out, d_out = arena.alloc(values.size, values.dtype)
            cuts = _weighted_cuts(offsets, self.workers)
            tasks = []
            for w in range(self.workers):
                s0, s1 = int(cuts[w]), int(cuts[w + 1])
                if s1 > s0 and offsets[s1] > offsets[s0]:
                    tasks.append((w, "segmented_sort", {
                        "values": d_vals, "offsets": d_off, "out": d_out,
                        "s0": s0, "s1": s1,
                    }))
            self._run(tasks)
            return out.copy()

        return self._supervised(
            "segmented_sort_values", attempt,
            lambda: self._numpy.segmented_sort_values(values, offsets),
        )

    def segmented_searchsorted(
        self,
        values: np.ndarray,
        offsets: np.ndarray,
        queries: np.ndarray,
        query_seg: np.ndarray,
        side: Union[str, np.ndarray] = "left",
        lo: Optional[np.ndarray] = None,
        hi: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        values = np.asarray(values)
        queries = np.asarray(queries)
        if (
            queries.size < self.min_parallel_elements
            or self.workers <= 1
            or queries.ndim != 1
            or values.dtype.hasobject
            # Scalar windows broadcast in the reference; shard only the
            # per-query array form.
            or (lo is not None and np.ndim(lo) == 0)
            or (hi is not None and np.ndim(hi) == 0)
        ):
            self._count("segmented_searchsorted", False)
            return self._numpy.segmented_searchsorted(
                values, offsets, queries, query_seg, side=side, lo=lo, hi=hi
            )
        offsets = np.asarray(offsets, dtype=np.int64)
        query_seg = np.asarray(query_seg, dtype=np.int64)
        # The reference's argument validation, verbatim, so sharding never
        # changes which calls raise (workers only ever see valid slices).
        if queries.shape != query_seg.shape:
            raise ValueError("queries and query_seg must be equal-length 1-D arrays")
        if query_seg.size and (
            query_seg.min(initial=0) < 0
            or query_seg.max(initial=0) >= offsets.size - 1
        ):
            raise IndexError("query segment index out of range")
        side_str: Optional[str] = None
        side_arr: Optional[np.ndarray] = None
        if isinstance(side, str):
            if side not in ("left", "right"):
                raise ValueError("side must be 'left', 'right', or a boolean mask")
            side_str = side
        else:
            side_arr = np.asarray(side, dtype=bool)
            if side_arr.shape != queries.shape:
                raise ValueError("per-query side mask must match the query shape")
        base = offsets[query_seg]
        lo_abs = base if lo is None else base + np.asarray(lo, dtype=np.int64)
        hi_abs = (
            offsets[query_seg + 1] if hi is None
            else base + np.asarray(hi, dtype=np.int64)
        )
        if lo_abs.size and (
            np.any(lo_abs < base) or np.any(hi_abs > offsets[query_seg + 1])
            or np.any(lo_abs > hi_abs)
        ):
            raise IndexError("search window out of segment range")

        def attempt() -> np.ndarray:
            self._ensure_pool()
            arena = self._arena
            lo64 = None if lo is None else np.asarray(lo, dtype=np.int64)
            hi64 = None if hi is None else np.asarray(hi, dtype=np.int64)
            need = (
                _aligned(values.nbytes) + _aligned(offsets.nbytes)
                + _aligned(queries.nbytes) + _aligned(query_seg.nbytes)
                + (0 if side_arr is None else _aligned(side_arr.nbytes))
                + (0 if lo64 is None else _aligned(lo64.nbytes))
                + (0 if hi64 is None else _aligned(hi64.nbytes))
                + _aligned(queries.size * 8) + 8 * _ALIGN
            )
            arena.begin(need)
            payload_base = {
                "values": arena.put(values),
                "offsets": arena.put(offsets),
                "queries": arena.put(queries),
                "query_seg": arena.put(query_seg),
                "side": side_str,
                "side_arr": None if side_arr is None else arena.put(side_arr),
                "lo": None if lo64 is None else arena.put(lo64),
                "hi": None if hi64 is None else arena.put(hi64),
            }
            out, d_out = arena.alloc(queries.size, np.int64)
            cuts = _range_cuts(queries.size, self.workers)
            tasks = []
            for w in range(self.workers):
                q0, q1 = cuts[w], cuts[w + 1]
                if q1 > q0:
                    payload = dict(payload_base)
                    payload.update({"out": d_out, "q0": q0, "q1": q1})
                    tasks.append((w, "segmented_searchsorted", payload))
            self._run(tasks)
            return out.copy()

        return self._supervised(
            "segmented_searchsorted", attempt,
            lambda: self._numpy.segmented_searchsorted(
                values, offsets, queries, query_seg, side=side, lo=lo, hi=hi
            ),
        )

    def blockwise_searchsorted(
        self,
        values: np.ndarray,
        offsets: np.ndarray,
        queries: np.ndarray,
        query_offsets: np.ndarray,
        side: str = "left",
    ) -> np.ndarray:
        values = np.asarray(values)
        queries = np.asarray(queries)
        offsets = np.asarray(offsets, dtype=np.int64)
        query_offsets = np.asarray(query_offsets, dtype=np.int64)
        if (
            queries.size < self.min_parallel_elements
            or self.workers <= 1
            or offsets.size < 3
            or values.dtype.hasobject
        ):
            self._count("blockwise_searchsorted", False)
            return self._numpy.blockwise_searchsorted(
                values, offsets, queries, query_offsets, side=side
            )
        if query_offsets.size != offsets.size:
            raise ValueError("need exactly one query block per segment")
        if int(query_offsets[-1]) != queries.size:
            raise ValueError("query_offsets must cover the query array")

        def attempt() -> np.ndarray:
            self._ensure_pool()
            arena = self._arena
            arena.begin(
                _aligned(values.nbytes) + _aligned(offsets.nbytes)
                + _aligned(queries.nbytes) + _aligned(query_offsets.nbytes)
                + _aligned(queries.size * 8) + 8 * _ALIGN
            )
            d = {
                "values": arena.put(values),
                "offsets": arena.put(offsets),
                "queries": arena.put(queries),
                "query_offsets": arena.put(query_offsets),
                "side": side,
            }
            out, d_out = arena.alloc(queries.size, np.int64)
            cuts = _weighted_cuts(query_offsets, self.workers)
            tasks = []
            for w in range(self.workers):
                s0, s1 = int(cuts[w]), int(cuts[w + 1])
                if s1 > s0 and query_offsets[s1] > query_offsets[s0]:
                    payload = dict(d)
                    payload.update({"out": d_out, "s0": s0, "s1": s1})
                    tasks.append((w, "blockwise_searchsorted", payload))
            self._run(tasks)
            return out.copy()

        return self._supervised(
            "blockwise_searchsorted", attempt,
            lambda: self._numpy.blockwise_searchsorted(
                values, offsets, queries, query_offsets, side=side
            ),
        )

    def ragged_bincount(
        self,
        seg: np.ndarray,
        key: np.ndarray,
        key_offsets: np.ndarray,
        validate: bool = True,
    ) -> np.ndarray:
        seg = np.asarray(seg)
        key = np.asarray(key)
        key_offsets = np.asarray(key_offsets, dtype=np.int64)
        nbins = int(key_offsets[-1]) if key_offsets.size else 0
        n = int(seg.size)
        # Partial histograms cost workers * nbins extra writes and memory;
        # shard only while that overhead stays below the element work.
        if (
            n < self.min_parallel_elements
            or self.workers <= 1
            or nbins * self.workers > max(4 * n, 1 << 16)
        ):
            self._count("ragged_bincount", False)
            return self._numpy.ragged_bincount(seg, key, key_offsets, validate=validate)
        if seg.shape != key.shape:
            raise ValueError("seg and key must have the same shape")
        if validate and seg.size:
            widths = np.diff(key_offsets)
            if key.min(initial=0) < 0 or np.any(key >= widths[seg]):
                raise IndexError("bin index out of range for its segment")

        def attempt() -> np.ndarray:
            self._ensure_pool()
            arena = self._arena
            arena.begin(
                _aligned(seg.nbytes) + _aligned(key.nbytes)
                + _aligned(key_offsets.nbytes)
                + _aligned(self.workers * nbins * 8) + 8 * _ALIGN
            )
            d_seg = arena.put(seg)
            d_key = arena.put(key)
            d_koff = arena.put(key_offsets)
            counts, d_counts = arena.alloc((self.workers, nbins), np.int64)
            cuts = _range_cuts(n, self.workers)
            tasks = []
            for w in range(self.workers):
                e0, e1 = cuts[w], cuts[w + 1]
                if e1 > e0:
                    tasks.append((w, "ragged_bincount", {
                        "seg": d_seg, "key": d_key, "key_offsets": d_koff,
                        "counts": d_counts, "row": w, "e0": e0, "e1": e1,
                    }))
                else:
                    counts[w, :] = 0
            self._run(tasks)
            return counts.sum(axis=0)

        return self._supervised(
            "ragged_bincount", attempt,
            lambda: self._numpy.ragged_bincount(
                seg, key, key_offsets, validate=False
            ),
        )

    def bincount(
        self,
        key: np.ndarray,
        minlength: int = 0,
        weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        key = np.asarray(key)
        n = int(key.size)
        if (
            n < max(self.min_parallel_elements, 1)
            or self.workers <= 1
            or weights is not None  # float partial sums would reassociate
            or key.ndim != 1
            or key.dtype.kind not in "iu"
        ):
            self._count("bincount", False)
            return self._numpy.bincount(key, minlength=minlength, weights=weights)
        kmin = int(key.min())
        if kmin < 0:  # numpy's own error path, verbatim
            self._count("bincount", False)
            return self._numpy.bincount(key, minlength=minlength, weights=weights)
        nbins = max(int(minlength), int(key.max()) + 1)
        if nbins * self.workers > max(4 * n, 1 << 16):
            self._count("bincount", False)
            return self._numpy.bincount(key, minlength=minlength, weights=weights)
        def attempt() -> np.ndarray:
            self._ensure_pool()
            arena = self._arena
            arena.begin(
                _aligned(key.nbytes) + _aligned(self.workers * nbins * 8)
                + 4 * _ALIGN
            )
            d_key = arena.put(key)
            counts, d_counts = arena.alloc((self.workers, nbins), np.int64)
            cuts = _range_cuts(n, self.workers)
            tasks = []
            for w in range(self.workers):
                e0, e1 = cuts[w], cuts[w + 1]
                if e1 > e0:
                    tasks.append((w, "bincount", {
                        "key": d_key, "counts": d_counts, "row": w,
                        "e0": e0, "e1": e1,
                    }))
                else:
                    counts[w, :] = 0
            self._run(tasks)
            return counts.sum(axis=0)

        return self._supervised(
            "bincount", attempt,
            lambda: self._numpy.bincount(key, minlength=minlength),
        )

    def stable_key_argsort(self, key: np.ndarray, key_bound: int) -> np.ndarray:
        key = np.asarray(key)
        n = int(key.size)
        # The parallel counting sort needs a per-worker count matrix; the
        # engine's keys are (PE, bucket/group) composites well under 2**16,
        # which keeps that matrix tiny.  Wider keys run inline.
        if (
            n < self.min_parallel_elements
            or self.workers <= 1
            or not 0 < key_bound <= 2 ** 16
            or key.ndim != 1
            or key.dtype.kind not in "iu"
        ):
            self._count("stable_key_argsort", False)
            return self._numpy.stable_key_argsort(key, key_bound)
        def attempt() -> np.ndarray:
            self._ensure_pool()
            arena = self._arena
            bound = int(key_bound)
            arena.begin(
                _aligned(key.nbytes)
                + 2 * _aligned(self.workers * bound * 8)
                + _aligned(n * 8) + 8 * _ALIGN
            )
            d_key = arena.put(key)
            counts, d_counts = arena.alloc((self.workers, bound), np.int64)
            starts, d_starts = arena.alloc((self.workers, bound), np.int64)
            out, d_out = arena.alloc(n, np.int64)
            cuts = _range_cuts(n, self.workers)
            shards = [
                (w, cuts[w], cuts[w + 1])
                for w in range(self.workers) if cuts[w + 1] > cuts[w]
            ]
            self._run([
                (w, "bincount", {
                    "key": d_key, "counts": d_counts, "row": w,
                    "e0": e0, "e1": e1,
                })
                for w, e0, e1 in shards
            ])
            for w in range(self.workers):
                if cuts[w + 1] == cuts[w]:
                    counts[w, :] = 0
            # Write starts: global exclusive rank of (worker, key) in stable
            # order — key-major, worker-minor, then in-shard arrival order.
            col_tot = counts.sum(axis=0)
            base = np.cumsum(col_tot) - col_tot
            np.cumsum(counts, axis=0, out=starts)
            starts -= counts
            starts += base[None, :]
            self._run([
                (w, "rank_scatter", {
                    "key": d_key, "counts": d_counts, "starts": d_starts,
                    "out": d_out, "row": w, "e0": e0, "e1": e1,
                    "key_bound": bound,
                })
                for w, e0, e1 in shards
            ])
            return out.copy()

        return self._supervised(
            "stable_key_argsort", attempt,
            lambda: self._numpy.stable_key_argsort(key, key_bound),
        )

    def stable_two_key_argsort(
        self,
        major: np.ndarray,
        minor: np.ndarray,
        major_bound: int,
        minor_bound: int,
    ) -> np.ndarray:
        major = np.asarray(major)
        minor = np.asarray(minor)
        n = int(major.size)
        if (
            n < self.min_parallel_elements
            or self.workers <= 1
            or self._degraded is not None
        ):
            self._count("stable_two_key_argsort", False)
            return self._numpy.stable_two_key_argsort(
                major, minor, major_bound, minor_bound
            )
        self._count("stable_two_key_argsort", True)
        if 0 <= major_bound * minor_bound <= 2 ** 16:
            # Same composed key as the reference; the stable permutation
            # of equal key values is unique, so the parallel counting sort
            # reproduces it bit for bit.
            key = major.astype(np.int64, copy=False) * minor_bound + minor
            return self.stable_key_argsort(key, major_bound * minor_bound)
        if major_bound <= 2 ** 16 and minor_bound <= 2 ** 16:
            # LSD two-pass radix, each pass a parallel stable counting
            # sort; gathers between passes run sharded too.
            order = self.stable_key_argsort(minor, minor_bound)
            order2 = self.stable_key_argsort(self.gather(major, order), major_bound)
            return self.gather(order, order2)
        return self._numpy.stable_two_key_argsort(
            major, minor, major_bound, minor_bound
        )

    def gather(self, values: np.ndarray, indices: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        indices = np.asarray(indices)
        n = int(indices.size)
        if (
            n < self.min_parallel_elements
            or self.workers <= 1
            or values.ndim != 1
            or indices.ndim != 1
            or indices.dtype.kind not in "iu"
            or values.dtype.hasobject
        ):
            self._count("gather", False)
            return self._numpy.gather(values, indices)
        def attempt() -> np.ndarray:
            self._ensure_pool()
            arena = self._arena
            arena.begin(
                _aligned(values.nbytes) + _aligned(indices.nbytes)
                + _aligned(n * values.dtype.itemsize) + 4 * _ALIGN
            )
            d_vals = arena.put(values)
            d_idx = arena.put(indices)
            out, d_out = arena.alloc(n, values.dtype)
            cuts = _range_cuts(n, self.workers)
            tasks = []
            for w in range(self.workers):
                e0, e1 = cuts[w], cuts[w + 1]
                if e1 > e0:
                    tasks.append((w, "gather", {
                        "values": d_vals, "indices": d_idx, "out": d_out,
                        "e0": e0, "e1": e1,
                    }))
            self._run(tasks)
            return out.copy()

        return self._supervised(
            "gather", attempt, lambda: self._numpy.gather(values, indices)
        )

    def take_ranges(
        self, values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        values = np.asarray(values)
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if starts.shape != lengths.shape:
            raise ValueError("starts and lengths must have the same shape")
        total = int(lengths.sum())
        if (
            total < self.min_parallel_elements
            or self.workers <= 1
            or values.ndim != 1
            or starts.ndim != 1
            or values.dtype.hasobject
        ):
            self._count("take_ranges", False)
            return self._numpy.take_ranges(values, starts, lengths)
        def attempt() -> np.ndarray:
            self._ensure_pool()
            arena = self._arena
            arena.begin(
                _aligned(values.nbytes) + _aligned(starts.nbytes)
                + _aligned(lengths.nbytes)
                + _aligned(total * values.dtype.itemsize) + 8 * _ALIGN
            )
            d_vals = arena.put(values)
            d_starts = arena.put(starts)
            d_lens = arena.put(lengths)
            out, d_out = arena.alloc(total, values.dtype)
            prefix = np.zeros(lengths.size + 1, dtype=np.int64)
            np.cumsum(lengths, out=prefix[1:])
            cuts = _weighted_cuts(prefix, self.workers)
            tasks = []
            for w in range(self.workers):
                r0, r1 = int(cuts[w]), int(cuts[w + 1])
                if r1 > r0 and prefix[r1] > prefix[r0]:
                    tasks.append((w, "take_ranges", {
                        "values": d_vals, "starts": d_starts,
                        "lengths": d_lens, "out": d_out,
                        "r0": r0, "r1": r1, "o0": int(prefix[r0]),
                    }))
            self._run(tasks)
            return out.copy()

        return self._supervised(
            "take_ranges", attempt,
            lambda: self._numpy.take_ranges(values, starts, lengths),
        )
