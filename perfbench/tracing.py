"""Outside-in tracing for the benchmark's traced runs.

Nothing here edits the program.  The traced run observes it from outside:

* :class:`TracingBackend` wraps whatever ``KernelBackend`` the process would
  use and is passed as ``run_on_machine(..., backend=...)``.  At each of the
  nine kernel calls it reads ``machine.current_phase``, so kernel time is
  attributed to the paper's phases.
* :func:`wrapped_blocks` swaps the ``repro.blocks`` entry functions in the
  namespaces of ``repro.core.ams_sort`` / ``repro.core.rlm_sort``, which is
  where the sorts look them up, and restores them on exit.
* Phase walls come from the public ``SimulatedMachine.enable_wall_profile``.

Spans (name, start, end, parent, one id per sort) are kept in memory by a
:class:`SpanRecorder` and written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.dist.backend import KernelBackend
from repro.machine.counters import PAPER_PHASES, PHASE_OTHER

#: The nine element-scale kernels of ``KernelBackend``.
KERNELS = (
    "segmented_sort_values",
    "segmented_searchsorted",
    "blockwise_searchsorted",
    "ragged_bincount",
    "bincount",
    "stable_key_argsort",
    "stable_two_key_argsort",
    "gather",
    "take_ranges",
)

#: Block entry function -> the sort modules that bind it by name.
BLOCKS = {
    "deliver_to_groups_batched": ("repro.core.ams_sort", "repro.core.rlm_sort"),
    "multisequence_select_batched": ("repro.core.rlm_sort",),
    "optimal_bucket_grouping_batched": ("repro.core.ams_sort",),
    "draw_samples_flat": ("repro.core.ams_sort",),
}

PHASES = tuple(PAPER_PHASES) + (PHASE_OTHER,)


class SpanRecorder:
    """In-memory spans; the innermost open span is the parent of a new one."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []
        self.sort_id: Optional[int] = None

    def begin(self, name: str, **attrs: object) -> int:
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "sort": self.sort_id,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        })
        self._open.append(span_id)
        return span_id

    def end(self, span_id: int) -> dict:
        span = self.spans[span_id]
        span["end"] = time.perf_counter()
        if self._open.pop() != span_id:
            raise RuntimeError(f"span {span['name']} closed out of order")
        return span

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        span_id = self.begin(name, **attrs)
        try:
            yield self.spans[span_id]
        finally:
            self.end(span_id)

    @contextmanager
    def sort(self, sort_id: int, **attrs: object) -> Iterator[dict]:
        """Root span of one sort; every span opened inside carries its id."""
        self.sort_id = sort_id
        try:
            with self.span("sort", **attrs) as root:
                yield root
        finally:
            self.sort_id = None

    def self_times(self) -> Dict[int, float]:
        """Span duration minus the time its direct children cover.

        The program is single-threaded in the process being traced, so the
        children of one span never overlap and their durations add up.
        """
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path: Path) -> None:
        """Write every span, with its self time, as JSON lines."""
        self_times = self.self_times()
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "self": self_times[s["id"]]}) + "\n")


class TracingBackend(KernelBackend):
    """Wraps a backend and records one span per kernel call.

    Each span carries the phase the machine was in and, computed from the
    array arguments and result, the element count (the longest array) and
    the bytes touched (every array read plus the one written).
    """

    def __init__(self, inner: KernelBackend, machine, recorder: SpanRecorder):
        self.inner = inner
        self.machine = machine
        self.recorder = recorder
        self.name = inner.name

    def _call(self, kernel: str, args: tuple, kwargs: dict):
        span_id = self.recorder.begin(
            "kernel." + kernel, phase=self.machine.current_phase
        )
        try:
            out = getattr(self.inner, kernel)(*args, **kwargs)
        finally:
            span = self.recorder.end(span_id)
        arrays = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
        arrays.append(out)
        span["elements"] = max(a.size for a in arrays)
        span["bytes"] = sum(a.nbytes for a in arrays)
        return out

    def segmented_sort_values(self, *args, **kwargs):
        return self._call("segmented_sort_values", args, kwargs)

    def segmented_searchsorted(self, *args, **kwargs):
        return self._call("segmented_searchsorted", args, kwargs)

    def blockwise_searchsorted(self, *args, **kwargs):
        return self._call("blockwise_searchsorted", args, kwargs)

    def ragged_bincount(self, *args, **kwargs):
        return self._call("ragged_bincount", args, kwargs)

    def bincount(self, *args, **kwargs):
        return self._call("bincount", args, kwargs)

    def stable_key_argsort(self, *args, **kwargs):
        return self._call("stable_key_argsort", args, kwargs)

    def stable_two_key_argsort(self, *args, **kwargs):
        return self._call("stable_two_key_argsort", args, kwargs)

    def gather(self, *args, **kwargs):
        return self._call("gather", args, kwargs)

    def take_ranges(self, *args, **kwargs):
        return self._call("take_ranges", args, kwargs)

    @property
    def is_parallel(self) -> bool:
        return self.inner.is_parallel

    def stats(self):
        return self.inner.stats()

    def effective_name(self) -> str:
        return self.inner.effective_name()

    def close(self) -> None:
        self.inner.close()

    def release_workspace(self) -> None:
        self.inner.release_workspace()

    def describe(self) -> str:
        return f"traced({self.inner.describe()})"


def _block_wrapper(recorder: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span("block." + name):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def wrapped_blocks(recorder: SpanRecorder) -> Iterator[None]:
    """Record a span around every block entry call; restore on exit.

    Modules are resolved with ``importlib.import_module``: the attribute
    ``repro.core.ams_sort`` is the re-exported *function* ``ams_sort``, not
    the submodule whose namespace the sort reads.
    """
    saved = []
    try:
        for name, modules in BLOCKS.items():
            for module_name in modules:
                module = importlib.import_module(module_name)
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, _block_wrapper(recorder, name, original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def sort_layers(
    recorder: SpanRecorder, sort_id: int, phase_wall: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer figures of one traced sort, keyed by metric name.

    ``phase_wall`` is the machine's wall profile for the sort.  The ``other``
    phase takes whatever part of the sort's wall the four paper phases do
    not, so the five phase walls add up to the sort's wall.
    """
    spans = [s for s in recorder.spans if s["sort"] == sort_id]
    self_times = recorder.self_times()
    wall = next(s["end"] - s["start"] for s in spans if s["name"] == "sort")
    out: Dict[str, float] = {}
    for k in KERNELS:
        out.update({f"kernel.{k}.{f}": 0 for f in ("calls", "elements", "bytes")})
        out[f"kernel.{k}.busy_s"] = 0.0
    for b in BLOCKS:
        out.update({f"block.{b}.calls": 0, f"block.{b}.busy_s": 0.0,
                    f"block.{b}.self_s": 0.0})
    phase_kernel = dict.fromkeys(PHASES, 0.0)
    for s in spans:
        layer, _, name = s["name"].partition(".")
        took = s["end"] - s["start"]
        if layer == "kernel":
            out[f"kernel.{name}.calls"] += 1
            out[f"kernel.{name}.elements"] += s["elements"]
            out[f"kernel.{name}.bytes"] += s["bytes"]
            out[f"kernel.{name}.busy_s"] += took
            phase_kernel[s["phase"]] += took
        elif layer == "block":
            out[f"block.{name}.calls"] += 1
            out[f"block.{name}.busy_s"] += took
            out[f"block.{name}.self_s"] += self_times[s["id"]]
    kernel_busy = sum(phase_kernel.values())
    out["kernel.busy_s"] = kernel_busy
    out["kernel.share"] = kernel_busy / wall
    paper = {ph: phase_wall.get(ph, 0.0) for ph in PAPER_PHASES}
    paper[PHASE_OTHER] = wall - sum(paper.values())
    for ph in PHASES:
        out[f"phase.{ph}.wall_s"] = paper[ph]
        out[f"phase.{ph}.kernel_s"] = phase_kernel[ph]
        out[f"phase.{ph}.outside_kernels_s"] = paper[ph] - phase_kernel[ph]
    return out


def median_layers(per_sort: List[Dict[str, float]]) -> Dict[str, float]:
    """Metric-wise median over the traced repeats of one run."""
    return {k: statistics.median(d[k] for d in per_sort) for k in per_sort[0]}
