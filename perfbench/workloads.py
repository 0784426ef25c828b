"""The benchmark's workloads: two single sorts and the quick campaign.

Each ``run_*`` function sets up, measures units until ``seconds`` have
passed, checks every output outside the timed region, and returns an
:class:`Outcome`.  With ``trace`` set it alternates untraced and traced
units and returns per-layer figures; see :mod:`tracing`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import AMSConfig, RLMConfig
from repro.core.runner import run_on_machine
from repro.dist.array import DistArray
from repro.dist.backend import get_backend
from repro.dist.workspace import get_arena
from repro.sim.machine import SimulatedMachine
from repro.workloads.generators import generate_workload

import tracing

#: name -> (algorithm, p, levels).  Both sort n/p = 1000 uniform int64 keys.
#: ams_p8192_l3 runs the paper's three-level AMS-sort on 65 MB of keys, more
#: than this process's share of the last-level cache, so element motion and
#: the AMS kernels (gather, radix argsort, bucket search) dominate.
#: rlm_p2048 fits in cache and spends most of its wall in multisequence
#: selection; it never runs the AMS bucket grouping, so it is the control for
#: AMS-side changes.
SORTS = {
    "ams_p8192_l3": ("ams", 2**13, 3),
    "rlm_p2048": ("rlm", 2048, 2),
}
N_PER_PE = 1000
#: Fresh processes per sort run.  On a shared host the warm walls of one
#: process stay close together but differ by about a tenth from those of the
#: next, so a run spreads its units over several processes; each one sets up
#: once, which also gives set-up time several samples.
SORT_PROCESSES = 3
#: Per-process limits, a few times the usual duration: a hung process counts
#: as failed and the run still ends in time.
PROCESS_TIMEOUT_S = 60.0

CAMPAIGN = "campaign_quick"
#: What a user runs to reproduce the figures; ``--jobs 2`` matches a
#: two-core host.  It covers the campaign pool, cache writes and reads,
#: aggregation, the tie-heavy key distributions and the baselines.
CAMPAIGN_ARGS = ("campaign", "--profile", "quick", "--jobs", "2", "--quiet")
CAMPAIGN_TIMEOUT_S = 75.0
CAMPAIGN_SETUPS = 5
_STATS_LINE = re.compile(
    r"campaign stats: cells=(\d+) executed=(\d+) cache_hits=(\d+) "
    r"cache_corrupt=(\d+) retries=(\d+) quarantined=(\d+)"
)

BENCH = Path(__file__).resolve().parent

#: Metric-name prefixes of layers a workload does not run at all; a traced
#: run reports them as 0.
SORT_LAYERS = ("kernel.", "cold.", "phase.", "block.", "traffic.", "arena.",
               "imbalance", "modelled_time_s", "setup.input_gen_s",
               "setup.cold_sort_s")
CAMPAIGN_LAYERS = ("campaign.",)


@dataclass
class Outcome:
    """What one run of a workload measured and found."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    not_exercised: tuple = ()
    lines: List[str] = field(default_factory=list)
    record: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str, units: int = 1) -> None:
        self.failed += units
        self.problems.append(message)


class Reference:
    """A fixed numpy task, timed by this process between workload units.

    Other tenants of a shared host slow this process by a factor that drifts
    over seconds to minutes.  The task does the same kinds of work as the
    sorts (a sort, a random gather, a binary search) and runs none of the
    program's code.  Scaling a run's times by ``NOMINAL_S`` over the median
    wall of this task cancels most of that drift and nothing a change to the
    program does; the results are seconds at the reference's nominal speed.
    """

    REPEATS = 3
    #: The task's wall on an idle two-core Xeon guest with numpy 2.4.
    NOMINAL_S = 0.25

    def __init__(self) -> None:
        rng = np.random.default_rng(20150613)
        self.keys = rng.integers(0, 2**62, 1_000_000)
        self.values = rng.integers(0, 2**62, 4_000_000)
        self.index = rng.permutation(4_000_000)
        self.table = np.sort(rng.integers(0, 2**62, 100_000))

    def time(self) -> float:
        """Median wall of ``REPEATS`` back-to-back runs of the task."""
        walls = []
        for _ in range(self.REPEATS):
            t = time.perf_counter()
            np.sort(self.keys)
            self.values[self.index]
            np.searchsorted(self.table, self.keys)
            walls.append(time.perf_counter() - t)
        return median(walls)

    @classmethod
    def scale(cls, seconds: float, refs: List[float]) -> float:
        """``seconds`` measured while the task took ``refs``, at nominal speed."""
        return seconds * cls.NOMINAL_S / median(refs)


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _rounded(values: List[float]) -> List[float]:
    return [round(v, 3) for v in values]


def _tail_line(walls: List[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return f"wall_tail_s: not reported ({n} units; needs at least 11)"
    q = 1 - 10 / n
    tail = float(np.quantile(walls, q, method="inverted_cdf"))
    return f"wall_tail_s: p{100 * q:.1f} = {tail:.4f} s over {n} units"


def _python(root: Path, args: List[str], timeout: float):
    """Run ``python <args>`` on the checkout's sources, in its own session.

    Returns ``(wall, returncode, stdout, stderr)``.  On timeout the whole
    session (a campaign CLI and its pool workers) is killed and reaped.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=root, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except BaseException:  # a timeout, or this process being stopped
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return time.perf_counter() - t, proc.returncode, stdout, stderr


# ----------------------------------------------------------------------
# Single sorts
# ----------------------------------------------------------------------
def _output_signature(result, expected: np.ndarray) -> Optional[dict]:
    """Digest, modelled clock and counters of a sort; None if unsorted."""
    out = np.concatenate(result.output)
    if not np.array_equal(out, expected):
        return None
    sizes = np.array([len(part) for part in result.output], dtype=np.int64)
    digest = hashlib.sha256(sizes.tobytes())
    digest.update(out.tobytes())
    return {
        "digest": digest.hexdigest(),
        "modelled_time_s": result.total_time,
        "imbalance": result.imbalance,
        "traffic": dict(result.traffic),
    }


def sort_process(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: str) -> dict:
    """One fresh process's share of a sort run; returns a JSON-able dict.

    Set-up is input generation, machine construction and the cold (first)
    sort.  Warm sorts follow until ``seconds`` have passed.  Every sort's
    output is checked against
    ``np.sort`` of the input, and its digest, modelled time and traffic
    against the first sort's, outside the timed region.
    """
    algorithm, p, levels = SORTS[name]
    config = (AMSConfig if algorithm == "ams" else RLMConfig)(levels=levels)
    out = {"attempted": 0, "failed": 0, "problems": [], "layers": [],
           "walls": {"plain": [], "traced": []}}

    t0 = time.perf_counter()
    data = generate_workload("uniform", p * N_PER_PE, seed)
    local = DistArray.from_sizes(data, np.full(p, N_PER_PE, dtype=np.int64))
    input_gen_s = time.perf_counter() - t0
    expected = np.sort(data)
    recorder = tracing.SpanRecorder()
    labels: List[str] = []

    def unit(machine, kind: str, label: str) -> Optional[float]:
        """One timed sort plus its checks; returns its wall or None."""
        out["attempted"] += 1
        sort_id = len(labels)
        labels.append(label)
        try:
            arena_before = get_arena().stats()
            if kind == "traced":
                backend = tracing.TracingBackend(
                    get_backend(None), machine, recorder
                )
                with recorder.sort(sort_id, label=label), \
                        tracing.wrapped_blocks(recorder):
                    t = time.perf_counter()
                    result = run_on_machine(machine, local, algorithm=algorithm,
                                            config=config, validate=False,
                                            backend=backend)
                    wall = time.perf_counter() - t
            else:
                t = time.perf_counter()
                result = run_on_machine(machine, local, algorithm=algorithm,
                                        config=config, validate=False)
                wall = time.perf_counter() - t
            arena_after = get_arena().stats()
            sig = _output_signature(result, expected)
        except Exception:
            traceback.print_exc()
            sig, problem = None, f"{label}: raised"
        else:
            problem = f"{label}: output is not np.sort of the input"
        out["backend_used"] = machine.backend_used
        if sig is not None and "sig" in out and sig != out["sig"]:
            problem = (f"{label}: digest, modelled time or traffic differ from "
                       "the first sort of the process")
            sig = None
        if sig is None:
            out["failed"] += 1
            out["problems"].append(problem)
            return None
        out.setdefault("sig", sig)
        if kind == "traced":
            row = tracing.sort_layers(recorder, sort_id, machine.wall_profile)
            hits = arena_after["hits"] - arena_before["hits"]
            misses = arena_after["misses"] - arena_before["misses"]
            row.update({
                "arena.hits": hits,
                "arena.misses": misses,
                "arena.hit_ratio": hits / max(hits + misses, 1),
                "arena.high_water_mb": arena_after["high_water_bytes"] / 2**20,
            })
            out["layers"].append(row)
        return wall

    t0 = time.perf_counter()
    plain = SimulatedMachine(p, seed=seed)
    traced = None
    if trace:
        traced = SimulatedMachine(p, seed=seed)
        traced.enable_wall_profile()
    machine_s = time.perf_counter() - t0
    cold_s = unit(traced if trace else plain, "traced" if trace else "plain",
                  "cold")
    if cold_s is None:
        raise RuntimeError("the cold sort failed: " + out["problems"][-1])
    out.update(input_gen_s=input_gen_s, machine_s=machine_s, cold_s=cold_s,
               setup_s=input_gen_s + machine_s + cold_s)

    kinds = ("plain", "traced") if trace else ("plain",)
    start = time.perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        i += 1
        wall = unit(traced if kind == "traced" else plain, kind,
                    f"warm{i} ({kind})")
        if wall is not None:
            out["walls"][kind].append(wall)
        if i % len(kinds) == 0 and time.perf_counter() - start >= seconds:
            break
    out.update(sorts=labels, peak_rss_mb=_peak_rss_mb())
    if trace:
        spans = Path(out_dir) / f"spans-{name}-seed{seed}-{os.getpid()}.jsonl"
        recorder.write(spans)
        out["spans"] = str(spans)
    return out


def run_sort(name: str, seed: int, seconds: float, trace: bool, root: Path,
             out_dir: Path) -> Outcome:
    """A sort run: ``SORT_PROCESSES`` fresh processes, one after another,
    with the :class:`Reference` task timed here before and after each."""
    res = Outcome(not_exercised=CAMPAIGN_LAYERS)
    code = (f"import json, sys; sys.path.insert(0, {str(BENCH)!r}); "
            "import workloads; print(json.dumps(workloads.sort_process("
            f"{name!r}, {seed}, {seconds / SORT_PROCESSES!r}, {trace!r}, "
            f"{str(out_dir)!r})))")
    procs = []
    reference = Reference()
    refs = [reference.time()]
    for k in range(SORT_PROCESSES):
        try:
            _, status, stdout, stderr = _python(root, ["-c", code],
                                                PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            status, stderr = "timed out", ""
        refs.append(reference.time())
        sys.stderr.write(stderr)
        if status != 0:
            res.attempted += 1
            res.fail(f"process {k}: exit {status}")
            continue
        one = json.loads(stdout.strip().splitlines()[-1])
        res.attempted += one["attempted"]
        res.failed += one["failed"]
        res.problems += [f"process {k}: {m}" for m in one["problems"]]
        if procs and one["sig"] != procs[0]["sig"]:
            res.fail(f"process {k}: digest, modelled time or traffic differ "
                     "from process 0")
        procs.append(one)
    kinds = ("plain", "traced") if trace else ("plain",)
    walls = {k: [w for one in procs for w in one["walls"][k]] for k in kinds}
    if not procs or any(not walls[k] for k in kinds):
        raise RuntimeError("no warm sort succeeded; nothing to measure\n"
                           + "\n".join(res.problems))

    sig = procs[0]["sig"]
    setups = [one["setup_s"] for one in procs]
    res.record.update(backend_used=procs[0].get("backend_used"), walls=walls,
                      refs=refs, setups=setups, processes=procs)
    res.lines.append(
        f"checks: {sum(len(one['sorts']) for one in procs)} sorts in "
        f"{len(procs)} processes equal np.sort of the input; digest "
        f"{sig['digest'][:16]}, modelled time and traffic identical across them"
    )
    if not trace:
        res.metrics = {
            "wall_s": Reference.scale(median(walls["plain"]), refs),
            "setup_s": Reference.scale(median(setups), refs),
            "peak_rss_mb": max(one["peak_rss_mb"] for one in procs),
        }
        res.lines += [
            f"measured wall: median {median(walls['plain']):.4f} s of "
            f"{len(walls['plain'])} warm sorts {_rounded(walls['plain'])}",
            _tail_line(walls["plain"]),
            f"reference task: median {median(refs):.4f} s of {_rounded(refs)}",
            f"measured set-up: median of {_rounded(setups)} (input, machine, "
            "cold sort)",
        ]
        return res

    cold = [one["layers"][0] for one in procs]
    warm = [row for one in procs for row in one["layers"][1:]]
    res.metrics = tracing.median_layers(warm)
    cold_keys = [f"kernel.{k}.busy_s" for k in tracing.KERNELS]
    cold_keys += ["kernel.busy_s", "kernel.share"]
    res.metrics.update({
        f"cold.{key}": median([row[key] for row in cold]) for key in cold_keys
    })
    res.metrics.update({f"traffic.{k}": v for k, v in sig["traffic"].items()})
    res.metrics.update({
        "imbalance": sig["imbalance"],
        "modelled_time_s": sig["modelled_time_s"],
        "setup.input_gen_s": median([one["input_gen_s"] for one in procs]),
        "setup.cold_sort_s": median([one["cold_s"] for one in procs]),
        "trace.overhead_s": median(walls["traced"]) - median(walls["plain"]),
    })
    res.lines.append(f"untraced warm walls {_rounded(walls['plain'])}, "
                     f"traced {_rounded(walls['traced'])}")
    res.lines.append("kernel busy_s per traced sort, by process (cold first):")
    for k in tracing.KERNELS:
        per = [[round(row[f"kernel.{k}.busy_s"], 4) for row in one["layers"]]
               for one in procs]
        res.lines.append(f"  {k:24s} {per}")
    res.lines.append("spans: " + ", ".join(one["spans"] for one in procs))
    return res


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------
def run_campaign(seed: int, seconds: float, trace: bool, root: Path,
                 out_dir: Path) -> Outcome:
    """Whole quick campaigns, each from an empty cache, then a cached re-run.

    The campaign derives every cell's seed from the cell itself, so ``seed``
    changes nothing it computes; it only names the run's files.
    """
    res = Outcome(not_exercised=SORT_LAYERS)
    work = out_dir / f"campaign-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    recorder = tracing.SpanRecorder()
    try:
        return _campaign(res, seconds, trace, root, work, recorder, out_dir)
    finally:
        if trace:
            spans = out_dir / f"spans-{CAMPAIGN}-seed{seed}-{os.getpid()}.jsonl"
            recorder.write(spans)
        for path in sorted(work.rglob("*"), reverse=True):
            path.rmdir() if path.is_dir() else path.unlink()
        work.rmdir()


def _campaign(res: Outcome, seconds: float, trace: bool, root: Path,
              work: Path, recorder: tracing.SpanRecorder,
              out_dir: Path) -> Outcome:
    # Set-up: a cold interpreter importing the campaign CLI, the fixed cost
    # every campaign invocation pays before its first cell.
    setup = []
    for _ in range(CAMPAIGN_SETUPS):
        with recorder.span("setup.import"):
            wall, code, _, err = _python(
                root, ["-c", "import repro.experiments.cli"], 60.0
            )
        if code != 0:
            raise RuntimeError(f"importing the campaign CLI failed:\n{err}")
        setup.append(wall)

    digests = []
    walls: Dict[str, List[float]] = {"plain": [], "traced": []}
    stats_rows: List[dict] = []

    def unit(n: int, kind: str, cache: Path, extra=()) -> Optional[float]:
        summary = work / f"summary-{n}.json"
        stats_file = work / f"stats-{n}.json"
        args = ["-m", "repro.experiments.cli", *CAMPAIGN_ARGS,
                "--cache-dir", str(cache), "--output", str(summary), *extra]
        if kind == "traced":
            args += ["--stats-output", str(stats_file)]
        try:
            with recorder.span(f"campaign.{kind}", unit=n):
                wall, code, stdout, stderr = _python(root, args,
                                                     CAMPAIGN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            res.attempted += 1
            res.fail(f"campaign {n} ({kind}): timed out")
            return None
        match = _STATS_LINE.search(stdout)
        if code != 0 or match is None:
            res.attempted += 1
            res.fail(f"campaign {n} ({kind}): exit {code}\n{stderr[-2000:]}")
            return None
        cells, executed, hits, corrupt, retries, quarantined = map(
            int, match.groups()
        )
        res.attempted += cells
        if retries or quarantined or corrupt:
            res.fail(f"campaign {n} ({kind}): {retries} retried, {quarantined} "
                     f"quarantined, {corrupt} corrupt cache cells",
                     units=retries + quarantined + corrupt)
        digest = hashlib.sha256(summary.read_bytes()).hexdigest()
        if digests and digest != digests[0]:
            res.fail(f"campaign {n} ({kind}): summary digest differs",
                     units=cells)
        digests.append(digest)
        if kind == "traced":
            stats = json.loads(stats_file.read_text())
            stats["cells_per_s"] = stats["executed"] / wall
            stats_rows.append(stats)
        return wall

    kinds = ("plain", "traced") if trace else ("plain",)
    reference = Reference()
    refs = [reference.time()]
    start = time.perf_counter()
    n = 0
    while True:
        kind = kinds[n % len(kinds)]
        cache = work / f"cache-{n}"
        wall = unit(n, kind, cache)
        n += 1
        refs.append(reference.time())
        if wall is not None:
            walls[kind].append(wall)
        if n % len(kinds) == 0 and time.perf_counter() - start >= seconds:
            break
    if any(not walls[k] for k in kinds):
        raise RuntimeError("no campaign succeeded; nothing to measure\n"
                           + "\n".join(res.problems))
    # The cached re-run reads what the last campaign wrote and must
    # reproduce its summary without executing a cell.
    resume_s = unit(n, "resume", cache, extra=("--require-cached",))

    # The summary is deterministic, so it must also match earlier runs of
    # this checkout.
    pinned = out_dir / f"{CAMPAIGN}.digest"
    if digests:
        if not pinned.exists():
            pinned.write_text(digests[0] + "\n")
        elif pinned.read_text().strip() != digests[0]:
            res.fail("campaign summary digest differs from an earlier run "
                     f"recorded in {pinned}")
        res.lines.append(
            f"checks: {len(digests)} campaign summaries (with the cached "
            f"re-run) share digest {digests[0][:16]}"
        )
    res.record.update(walls=walls, refs=refs, setup_import_s=setup,
                      resume_s=resume_s)

    if not trace:
        res.metrics = {
            "wall_s": Reference.scale(median(walls["plain"]), refs),
            "setup_s": Reference.scale(median(setup), refs),
            # This process plus its largest child: the CLI or a pool worker.
            "peak_rss_mb": _peak_rss_mb()
            + _peak_rss_mb(resource.RUSAGE_CHILDREN),
        }
        res.lines += [
            f"measured wall: median {median(walls['plain']):.4f} s of "
            f"{len(walls['plain'])} campaigns {_rounded(walls['plain'])}",
            _tail_line(walls["plain"]),
            f"reference task: median {median(refs):.4f} s of {_rounded(refs)}",
            f"measured set-up: median of {CAMPAIGN_SETUPS} cold imports of the "
            f"campaign CLI {_rounded(setup)}",
            f"campaign.resume_s (cached re-run): {resume_s}",
        ]
        return res

    keys = ("cells", "executed", "cache_hits", "cell_retries", "quarantined",
            "pool_rebuilds", "cells_per_s")
    res.metrics = {
        f"campaign.{k}": median([row[k] for row in stats_rows]) for k in keys
    }
    res.metrics["campaign.resume_s"] = resume_s if resume_s is not None else 0.0
    res.metrics["trace.overhead_s"] = (
        median(walls["traced"]) - median(walls["plain"])
    )
    res.lines.append(
        f"untraced campaign walls {_rounded(walls['plain'])}, "
        f"traced (with --stats-output) {_rounded(walls['traced'])}"
    )
    return res
