"""Tests of the benchmark's outside-in tracing (small machines, seconds)."""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import tracing  # noqa: E402
from repro.core.config import AMSConfig, RLMConfig  # noqa: E402
from repro.core.runner import run_on_machine  # noqa: E402
from repro.dist.array import DistArray  # noqa: E402
from repro.dist.backend import KernelBackend, get_backend  # noqa: E402
from repro.sim.machine import SimulatedMachine  # noqa: E402
from repro.workloads.generators import generate_workload  # noqa: E402

CASES = {
    "ams": (AMSConfig(levels=2), {"deliver_to_groups_batched",
                                  "optimal_bucket_grouping_batched",
                                  "draw_samples_flat"}),
    "rlm": (RLMConfig(levels=2), {"deliver_to_groups_batched",
                                  "multisequence_select_batched"}),
}


def _sort(algorithm, p=256, n_per_pe=100, seed=3, traced=False):
    config = CASES[algorithm][0]
    data = generate_workload("uniform", p * n_per_pe, seed)
    local = DistArray.from_sizes(data, np.full(p, n_per_pe, dtype=np.int64))
    machine = SimulatedMachine(p, seed=seed)
    if not traced:
        return run_on_machine(machine, local, algorithm=algorithm,
                              config=config, validate=False), None
    recorder = tracing.SpanRecorder()
    machine.enable_wall_profile()
    backend = tracing.TracingBackend(get_backend(None), machine, recorder)
    with recorder.sort(0), tracing.wrapped_blocks(recorder):
        result = run_on_machine(machine, local, algorithm=algorithm,
                                config=config, validate=False, backend=backend)
    return result, (recorder, machine)


@pytest.mark.parametrize("algorithm", sorted(CASES))
def test_tracing_is_byte_invisible(algorithm):
    plain, _ = _sort(algorithm)
    traced, _ = _sort(algorithm, traced=True)
    assert len(plain.output) == len(traced.output)
    for a, b in zip(plain.output, traced.output):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert traced.total_time == plain.total_time
    assert traced.traffic == plain.traffic
    assert traced.phase_times == plain.phase_times


@pytest.mark.parametrize("algorithm", sorted(CASES))
def test_traced_sort_reaches_every_layer(algorithm):
    _, (recorder, machine) = _sort(algorithm, traced=True)
    names = {s["name"] for s in recorder.spans}
    assert {f"block.{b}" for b in CASES[algorithm][1]} <= names
    assert any(n.startswith("kernel.") for n in names)
    assert all(s["sort"] == 0 and s["end"] >= s["start"] for s in recorder.spans)

    layers = tracing.sort_layers(recorder, 0, machine.wall_profile)
    root = recorder.spans[0]
    wall = root["end"] - root["start"]
    phases = sum(layers[f"phase.{ph}.wall_s"] for ph in tracing.PHASES)
    assert phases == pytest.approx(wall)
    assert sum(recorder.self_times().values()) == pytest.approx(wall)
    assert 0 < layers["kernel.share"] < 1
    for ph in tracing.PHASES:
        assert layers[f"phase.{ph}.kernel_s"] >= 0


def test_tracing_backend_covers_every_kernel():
    abstract = set(KernelBackend.__abstractmethods__)
    assert abstract == set(tracing.KERNELS)
    assert abstract <= set(vars(tracing.TracingBackend))
    assert not tracing.TracingBackend.__abstractmethods__


def test_block_wrappers_are_restored():
    modules = {m for mods in tracing.BLOCKS.values() for m in mods}
    before = {
        (m, b): getattr(importlib.import_module(m), b)
        for b, mods in tracing.BLOCKS.items() for m in mods
    }
    recorder = tracing.SpanRecorder()
    with pytest.raises(RuntimeError):
        with tracing.wrapped_blocks(recorder):
            for (m, b), original in before.items():
                assert getattr(importlib.import_module(m), b) is not original
            raise RuntimeError("body failed")
    for (m, b), original in before.items():
        assert getattr(importlib.import_module(m), b) is original
    assert modules == {"repro.core.ams_sort", "repro.core.rlm_sort"}


def test_sort_modules_are_shadowed_by_reexported_functions():
    """Why the wrappers go through ``importlib.import_module``."""
    import repro.core

    assert callable(repro.core.ams_sort) and callable(repro.core.rlm_sort)
    assert not hasattr(repro.core.ams_sort, "draw_samples_flat")
    module = importlib.import_module("repro.core.ams_sort")
    assert hasattr(module, "draw_samples_flat")


def test_run_fails_without_the_program(tmp_path):
    """Beside only BENCHMARK.json and the benchmark, the command must fail."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"),
         "--workload", "rlm_p2048", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
