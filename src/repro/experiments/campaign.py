"""Sharded, cached experiment campaigns over the paper's evaluation.

The paper (Section 7, Appendix E) evaluates at ``p`` in {512, 2048, 8192,
32768} across Table 2 and Figs. 7-12.  A *campaign* expands each experiment
of :data:`EXPERIMENT_MODULES` (weak scaling, slowdown, overpartitioning,
variance, comparison, level table, faults) into a flat list of **cells** —
one ``(machine, algorithm, config, workload, repetition)`` single run each,
listed by the module's ``cells`` — and then

* fans the cells across a :class:`~concurrent.futures.ProcessPoolExecutor`
  (``jobs > 1``) with a deterministic per-cell seed derived from the cell
  spec, so sharded and serial execution produce **byte-identical** summaries,
* caches each cell's :meth:`~repro.core.runner.SortResult.summary_dict` on
  disk keyed by a content hash of the cell spec plus :data:`RNG_VERSION`
  (the code-relevant RNG generation), so interrupted or re-run campaigns
  resume from the cache instead of recomputing,
* aggregates the cell summaries with each module's ``aggregate`` into the
  per-experiment rows (medians over repetitions, best-level reductions,
  slowdown ratios) that correspond to the paper's tables and figures.

Cells above ``reference_max_p`` (the per-PE reference engine's feasibility
limit, relevant for the ``"paper"`` profile reaching ``p = 32768``) are
flat-engine only and are pinned by a seeded-determinism re-run instead of a
cross-engine comparison, exactly like ``benchmarks/bench_engine_scaling.py``.

A single table or figure is a one-experiment campaign (``jobs=1``, no
cache).  Command line::

    python -m repro.experiments.cli campaign --profile quick --jobs 4
    python -m repro.experiments.cli table2 --scale quick
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.core.config import AMSConfig, RLMConfig, level_plan
from repro.core.runner import run_on_machine
from repro.experiments import (
    comparison,
    faults,
    level_table,
    overpartitioning,
    slowdown,
    variance,
    weak_scaling,
)
from repro.experiments.harness import PAPER_P_VALUES, CampaignCell, scale_profile
from repro.machine.spec import spec_by_name
from repro.sim.machine import SimulatedMachine
from repro.workloads.generators import WORKLOADS, per_pe_workload


#: Code-relevant RNG generation.  The cell cache key includes this string, so
#: bumping it invalidates every cached summary.  Bump whenever a change moves
#: which random streams the algorithms consume (e.g. the PR 2 pivot-stream
#: move or the PR 3 counter-RNG migration): such changes shift modelled
#: clocks/imbalance and stale cached summaries would otherwise survive.
RNG_VERSION = "ctr-philox-v1+group-rng-v1"

#: Every experiment, in display order: each module defines ``TITLE``,
#: ``cells(profile, workload, primary)`` and ``aggregate(pairs)``.
EXPERIMENT_MODULES = {
    "weak_scaling": weak_scaling,
    "slowdown": slowdown,
    "overpartitioning": overpartitioning,
    "variance": variance,
    "comparison": comparison,
    "level_table": level_table,
    "faults": faults,
}

#: Experiments a campaign can expand, in display order.
CAMPAIGN_EXPERIMENTS = tuple(EXPERIMENT_MODULES)

#: Default workload axis: the paper's uniform input plus the adversarial
#: distributions from :mod:`repro.workloads.generators`.  The first entry is
#: the *primary* workload and gets the full profile grid; the others ride a
#: trimmed grid (smallest machine/input sizes) so every figure gains
#: non-uniform rows without multiplying the campaign cost by the number of
#: workloads.
CAMPAIGN_WORKLOADS = (
    "uniform",
    "zipf",
    "nearly_sorted",
    "duplicates",
    "staggered",
    "all_equal",
    "reverse",
)


# ----------------------------------------------------------------------
# Cell spec
# ----------------------------------------------------------------------
def _canonical_json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def derive_cell_seed(identity: Mapping[str, object]) -> int:
    """Deterministic seed from the cell's identity fields.

    Uses SHA-256 (never :func:`hash`, which is salted per process) so every
    worker process — and every future session — derives the same seed.
    """
    digest = hashlib.sha256(_canonical_json(dict(identity)).encode()).hexdigest()
    return int(digest[:8], 16) % (2**31 - 1)


#: Fields that describe *how* a cell executes, not *what* experiment it is.
#: They are excluded from the seed identity so e.g. a reference-engine run of
#: a cell draws the same streams (and must reproduce the same summary) as the
#: flat-engine run.  They remain part of the cache key.
_EXECUTION_FIELDS = ("seed", "engine", "validate", "determinism_check")


def finalize_cell(cell: CampaignCell) -> CampaignCell:
    """Fill in the derived seed (identity = spec minus execution details)."""
    identity = cell.to_dict()
    for field in _EXECUTION_FIELDS:
        identity.pop(field)
    # The fault spec never enters the seed: healthy cells keep their
    # pre-fault-layer identity (and golden traces), and every rung of a
    # fault ladder sorts the *same* input with the *same* sampling streams —
    # a controlled degradation comparison, not a different experiment.  The
    # spec remains part of the cache key (cell_key hashes the full spec).
    identity.pop("faults", None)
    return replace(cell, seed=derive_cell_seed(identity))


def cell_key(cell: CampaignCell) -> str:
    """Content hash of the full cell spec + RNG generation: the cache key."""
    payload = _canonical_json({"spec": cell.to_dict(), "rng_version": RNG_VERSION})
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
def _run_sort_cell(cell: CampaignCell) -> Dict[str, object]:
    machine = SimulatedMachine(
        cell.p, spec=spec_by_name(cell.machine), seed=cell.seed,
        faults=cell.faults or None,
    )
    local_data = per_pe_workload(cell.workload, cell.p, cell.n_per_pe, seed=cell.seed + 1)
    # Baselines take no config; AMS-sort gets explicit sampling parameters
    # when the experiment sweeps them.
    config = None
    if cell.algorithm == "ams":
        sampling = None
        if cell.overpartitioning is not None or cell.oversampling is not None:
            from repro.blocks.sampling import SamplingParams, default_oversampling

            sampling = SamplingParams(
                oversampling=(
                    cell.oversampling
                    if cell.oversampling is not None
                    else default_oversampling(cell.p * cell.n_per_pe)
                ),
                overpartitioning=(
                    cell.overpartitioning if cell.overpartitioning is not None else 16
                ),
                per_pe=True,
            )
        config = AMSConfig(
            levels=cell.levels, node_size=cell.node_size, delivery=cell.delivery,
            sampling=sampling,
        )
    elif cell.algorithm == "rlm":
        config = RLMConfig(
            levels=cell.levels, node_size=cell.node_size, delivery=cell.delivery
        )
    result = run_on_machine(
        machine,
        local_data,
        algorithm=cell.algorithm,
        config=config,
        validate=cell.validate,
        engine=cell.engine,
    )
    return result.summary_dict()


def run_cell(cell: CampaignCell) -> Dict[str, object]:
    """Execute one cell and return its JSON-safe summary.

    ``plan`` cells compute the Table 1 level plans for the paper's machine
    sizes.  ``sort`` cells with ``determinism_check`` run twice with the same
    seed and must reproduce the identical summary (the large-``p`` substitute
    for the cross-engine comparison).
    """
    if cell.kind == "plan":
        return {
            "plan_by_p": {
                str(p): [int(r) for r in level_plan(p, cell.levels, node_size=cell.node_size)]
                for p in PAPER_P_VALUES
            }
        }
    summary = _run_sort_cell(cell)
    if cell.determinism_check:
        again = _run_sort_cell(cell)
        if again != summary:
            raise AssertionError(
                f"cell {cell_key(cell)} ({cell.experiment}, p={cell.p}, "
                f"workload={cell.workload}) is not seed-deterministic"
            )
    return summary


# ----------------------------------------------------------------------
# Disk cache
# ----------------------------------------------------------------------
def _summary_checksum(summary: Mapping[str, object]) -> str:
    """SHA-256 over the canonical JSON of a cell summary."""
    return hashlib.sha256(_canonical_json(dict(summary)).encode()).hexdigest()


class CellCache:
    """One JSON file per cell summary, written atomically and checksummed.

    The file name is the content hash (:func:`cell_key`), so a cache
    directory can be shared between profiles and survives interrupted
    campaigns: completed cells are flushed as they finish, and a re-run only
    executes the missing ones.  Clock-model changes must bump
    :data:`RNG_VERSION`, which changes every key and therefore invalidates
    the whole cache.  Every document embeds a SHA-256 checksum of its
    summary, so a truncated or bit-flipped file is *detected* — it becomes
    a counted ``corrupt`` miss and the cell recomputes; cached bytes are
    never trusted on parseability alone.  Any unreadable, stale or
    schema-incomplete entry is likewise a miss, never an error.
    """

    def __init__(self, root: "Path | str"):
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        return self.get_with_status(key)[0]

    def get_with_status(
        self, key: str
    ) -> Tuple[Optional[Dict[str, object]], str]:
        """``(summary or None, status)`` for one cache entry.

        Status is ``"hit"``, ``"miss"`` (no entry), ``"stale"`` (readable
        but from another RNG generation or a pre-checksum writer — silently
        recompute) or ``"corrupt"`` (bytes cannot be trusted: unparseable,
        schema-broken or checksum mismatch — recompute *and report*).
        """
        path = self.path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None, "miss"
        except (OSError, UnicodeDecodeError):
            # Unreadable or bit-flipped into invalid UTF-8: corrupt bytes.
            return None, "corrupt"
        try:
            doc = json.loads(text)
        except ValueError:
            return None, "corrupt"
        if not isinstance(doc, dict):
            return None, "corrupt"
        if doc.get("rng_version") != RNG_VERSION:
            return None, "stale"
        summary = doc.get("summary")
        if not isinstance(summary, dict):
            return None, "corrupt"
        checksum = doc.get("checksum")
        if checksum is None:
            # Pre-checksum cache generation: recompute without alarm.
            return None, "stale"
        if checksum != _summary_checksum(summary):
            return None, "corrupt"
        return summary, "hit"

    def put(self, key: str, cell: CampaignCell, summary: Mapping[str, object]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        doc = {
            "rng_version": RNG_VERSION,
            "spec": cell.to_dict(),
            "summary": dict(summary),
            "checksum": _summary_checksum(summary),
        }
        tmp = self.root / f".{key}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.path(key))


# ----------------------------------------------------------------------
# Campaign expansion
# ----------------------------------------------------------------------
def expand_campaign(
    profile: Mapping[str, object],
    experiments: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[str]] = None,
) -> List[CampaignCell]:
    """Expand a profile into the flat, deterministic list of campaign cells."""
    if experiments is None:
        experiments = tuple(profile.get("experiments", CAMPAIGN_EXPERIMENTS))
    if workloads is None:
        workloads = tuple(profile.get("workloads", CAMPAIGN_WORKLOADS))
    unknown = [e for e in experiments if e not in EXPERIMENT_MODULES]
    if unknown:
        raise KeyError(
            f"unknown experiments {unknown!r}; known: {sorted(EXPERIMENT_MODULES)}"
        )
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        raise KeyError(f"unknown workloads {unknown!r}; known: {sorted(WORKLOADS)}")

    engine = str(profile.get("engine", "flat"))
    machine = str(profile.get("machine", "supermuc"))
    reference_max_p = int(profile.get("reference_max_p", 1024))
    validate_max_p = int(profile.get("validate_max_p", 2**62))

    cells: List[CampaignCell] = []
    for experiment in experiments:
        for i, workload in enumerate(workloads):
            for cell in EXPERIMENT_MODULES[experiment].cells(profile, workload, i == 0):
                if cell.kind == "sort":
                    cell = replace(
                        cell,
                        machine=machine,
                        engine=engine,
                        validate=cell.p <= validate_max_p,
                        determinism_check=cell.p > reference_max_p,
                    )
                cells.append(finalize_cell(cell))
    return cells


# ----------------------------------------------------------------------
# Execution (serial or sharded)
# ----------------------------------------------------------------------
class CellTimeoutError(RuntimeError):
    """A cell exceeded its wall-clock budget (beyond-tier safety valve)."""


def _run_cell_guarded(
    cell: CampaignCell, timeout_s: Optional[float] = None
) -> Dict[str, object]:
    """:func:`run_cell` under an optional SIGALRM wall-clock deadline.

    Module level (picklable) so sharded campaigns submit it to pool
    workers; the itimer fires in the executing process's main thread, which
    is exactly where :class:`ProcessPoolExecutor` workers run their tasks.
    Wall-clock only — modelled time is untouched, and a cell that finishes
    in budget produces the same summary with or without the guard.
    """
    if not timeout_s:
        return run_cell(cell)
    import signal

    def _on_alarm(signum, frame):
        raise CellTimeoutError(
            f"cell {cell_key(cell)} ({cell.experiment}, p={cell.p}, "
            f"workload={cell.workload}) exceeded its {timeout_s}s "
            "wall-clock budget"
        )

    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        return run_cell(cell)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _cell_desc(cell: CampaignCell) -> str:
    return (
        f"{cell.experiment} {cell.algorithm} p={cell.p} n/p={cell.n_per_pe} "
        f"k={cell.levels} {cell.workload} rep={cell.repetition}"
    )


#: Exponential backoff before a cell retry: 0.1 s doubling, capped at 2 s.
_BACKOFF_BASE_S = 0.1
_BACKOFF_CAP_S = 2.0


def execute_cells(
    cells: Sequence[CampaignCell],
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    resume: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    retries: int = 2,
    strict: bool = False,
    cell_timeout_s: Optional[float] = None,
) -> Tuple[Dict[str, Dict[str, object]], Dict[str, object]]:
    """Run every cell (or fetch it from the cache); returns summaries + stats.

    Summaries are keyed by :func:`cell_key`.  With ``jobs > 1`` the pending
    cells are fanned across a process pool; because each cell carries its own
    derived seed, the summaries are byte-identical to serial execution
    regardless of completion order.  Completed cells are flushed to the cache
    as they finish, so an interrupted campaign resumes where it stopped.

    **Fault tolerance.**  A failing cell is retried up to ``retries`` times
    with exponential backoff; a cell that keeps failing is *quarantined* —
    skipped, reported in ``stats['quarantined_cells']`` — instead of
    aborting the campaign (``strict=True`` restores fail-fast on the first
    error).  A crash of a pool worker process (``BrokenProcessPool``)
    rebuilds the pool and charges one attempt to every cell that had not
    finished in that round, which bounds the damage a deterministically
    crashing cell can do: it exhausts its own budget within ``retries + 1``
    rebuilds and is quarantined.  ``cell_timeout_s`` puts a wall-clock
    ceiling on each cell (for beyond-tier rows), enforced via SIGALRM in
    the executing process.  Corrupt cache entries (checksum mismatch,
    truncation) are counted in ``stats['cache_corrupt']``, warned about
    once with the offending path, and recomputed.
    """
    stats: Dict[str, object] = {
        "cells": len(cells),
        "executed": 0,
        "cache_hits": 0,
        "cache_corrupt": 0,
        "cell_retries": 0,
        "pool_rebuilds": 0,
        "quarantined": 0,
        "quarantined_cells": [],
    }
    summaries: Dict[str, Dict[str, object]] = {}
    pending: List[Tuple[str, CampaignCell]] = []
    pending_keys = set()
    for cell in cells:
        key = cell_key(cell)
        if key in summaries or key in pending_keys:
            continue
        cached: Optional[Dict[str, object]] = None
        if cache is not None and resume:
            cached, status = cache.get_with_status(key)
            if status == "corrupt":
                stats["cache_corrupt"] += 1
                if progress is not None:
                    progress(
                        f"warning: corrupt cache entry {cache.path(key)} "
                        "(checksum/parse failure) — recomputing"
                    )
        if cached is not None:
            summaries[key] = cached
            stats["cache_hits"] += 1
        else:
            pending.append((key, cell))
            pending_keys.add(key)

    from repro.chaos import get_chaos

    def _finish(key: str, cell: CampaignCell, summary: Dict[str, object]) -> None:
        summaries[key] = summary
        stats["executed"] += 1
        if cache is not None:
            cache.put(key, cell, summary)
            chaos = get_chaos()
            if chaos is not None:
                # Deterministic chaos: attack the just-written bytes.  The
                # in-memory summary is already recorded, so this campaign
                # is unaffected; the *next* resume must detect the damage.
                chaos.maybe_corrupt_cache(cache.path(key))
        if progress is not None:
            done = stats["executed"] + stats["cache_hits"]
            progress(
                f"[{done}/{len(cells)}] {cell.experiment} "
                f"{cell.algorithm} p={cell.p} n/p={cell.n_per_pe} "
                f"k={cell.levels} {cell.workload} rep={cell.repetition}"
            )

    attempts: Dict[str, int] = {key: 0 for key, _ in pending}

    def _charge_failure(
        key: str, cell: CampaignCell, reason: str,
        retry_round: List[Tuple[str, CampaignCell]],
    ) -> None:
        """One failed attempt: requeue the cell or quarantine it."""
        attempts[key] += 1
        if attempts[key] > max(0, int(retries)):
            stats["quarantined"] += 1
            stats["quarantined_cells"].append(
                {"cell": _cell_desc(cell), "key": key, "reason": reason}
            )
            if progress is not None:
                progress(
                    f"warning: quarantined {_cell_desc(cell)} after "
                    f"{attempts[key]} attempts: {reason}"
                )
        else:
            stats["cell_retries"] += 1
            retry_round.append((key, cell))

    todo = list(pending)
    round_idx = 0
    while todo:
        if round_idx > 0:
            time.sleep(min(_BACKOFF_BASE_S * 2 ** (round_idx - 1), _BACKOFF_CAP_S))
        round_idx += 1
        retry_round: List[Tuple[str, CampaignCell]] = []
        if jobs <= 1:
            for key, cell in todo:
                try:
                    summary = _run_cell_guarded(cell, cell_timeout_s)
                except Exception as exc:
                    if strict:
                        raise
                    _charge_failure(key, cell, repr(exc), retry_round)
                else:
                    _finish(key, cell, summary)
        else:
            pool = ProcessPoolExecutor(max_workers=jobs)
            try:
                futures = {
                    pool.submit(_run_cell_guarded, cell, cell_timeout_s): (key, cell)
                    for key, cell in todo
                }
                unfinished = dict(futures)
                for future in as_completed(futures):
                    key, cell = futures[future]
                    try:
                        summary = future.result()
                    except BrokenProcessPool:
                        # The pool is gone: every cell still unfinished in
                        # this round failed with it.  Rebuild and charge
                        # each one attempt — bounded, because the true
                        # crasher exhausts its own budget within
                        # ``retries + 1`` rebuilds.
                        if strict:
                            raise
                        stats["pool_rebuilds"] += 1
                        for okey, ocell in unfinished.values():
                            _charge_failure(
                                okey, ocell,
                                "worker process crashed (BrokenProcessPool)",
                                retry_round,
                            )
                        break
                    except Exception as exc:
                        if strict:
                            raise
                        unfinished.pop(future, None)
                        _charge_failure(key, cell, repr(exc), retry_round)
                    else:
                        unfinished.pop(future, None)
                        _finish(key, cell, summary)
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
        todo = retry_round
    return summaries, stats


# ----------------------------------------------------------------------
# Aggregation: cells -> the paper's rows
# ----------------------------------------------------------------------
def aggregate_cells(
    cells: Sequence[CampaignCell], summaries: Mapping[str, Mapping[str, object]]
) -> Dict[str, Dict[str, List[Dict[str, object]]]]:
    """Reduce cell summaries to per-experiment row tables (paper order).

    Cells without a summary (quarantined after repeated execution-layer
    failures) are skipped: a broken host must cost rows, never the whole
    campaign.
    """
    out: Dict[str, Dict[str, List[Dict[str, object]]]] = {}
    for experiment in CAMPAIGN_EXPERIMENTS:
        pairs = []
        for cell in cells:
            if cell.experiment != experiment:
                continue
            summary = summaries.get(cell_key(cell))
            if summary is not None:
                pairs.append((cell, dict(summary)))
        if pairs:
            out[experiment] = EXPERIMENT_MODULES[experiment].aggregate(pairs)
    return out


# ----------------------------------------------------------------------
# The campaign driver
# ----------------------------------------------------------------------
def _resolve_profile(
    profile: "str | Mapping[str, object] | None",
) -> Tuple[str, Dict[str, object]]:
    if profile is None or isinstance(profile, str):
        name = profile if profile is not None else os.environ.get("REPRO_SCALE", "quick")
        return name, scale_profile(name)
    return str(profile.get("name", "custom")), dict(profile)


def run_campaign(
    profile: "str | Mapping[str, object] | None" = None,
    experiments: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache_dir: "Path | str | None" = None,
    resume: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    fault_specs: Optional[Sequence[str]] = None,
    retries: int = 2,
    strict: bool = False,
    cell_timeout_s: Optional[float] = None,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Expand, execute (sharded if ``jobs > 1``) and aggregate a campaign.

    Returns ``(summary, stats)``.  The summary contains only deterministic
    content (cell specs in, rows out) — no wall-clock times, worker counts or
    cache statistics — so two runs of the same campaign serialize to
    byte-identical JSON regardless of ``jobs`` and of how much came from the
    cache.  The stats dict carries the run-dependent part: cells executed vs
    served from cache, plus the recovery accounting of
    :func:`execute_cells` (retries, quarantines, corrupt cache entries).
    ``fault_specs`` overrides the fault-spec ladder of the ``"faults"``
    experiment (the healthy ``""`` baseline is always included).
    ``cell_timeout_s`` defaults to the profile's ``cell_timeout_s`` entry
    (set for the beyond tier, whose single rows can run for minutes).
    """
    name, prof = _resolve_profile(profile)
    if fault_specs is not None:
        prof["fault_specs"] = tuple(fault_specs)
    if cell_timeout_s is None:
        raw_timeout = prof.get("cell_timeout_s")
        cell_timeout_s = float(raw_timeout) if raw_timeout else None
    cells = expand_campaign(prof, experiments=experiments, workloads=workloads)
    cache = CellCache(cache_dir) if cache_dir is not None else None
    summaries, stats = execute_cells(
        cells, jobs=jobs, cache=cache, resume=resume, progress=progress,
        retries=retries, strict=strict, cell_timeout_s=cell_timeout_s,
    )
    used_experiments = tuple(dict.fromkeys(c.experiment for c in cells))
    used_workloads = tuple(dict.fromkeys(c.workload for c in cells))
    summary = {
        "meta": {
            "campaign": "conf_spaa_AxtmannBS015",
            "profile": name,
            "rng_version": RNG_VERSION,
            "experiments": list(used_experiments),
            "workloads": list(used_workloads),
            "cells": len(cells),
        },
        "experiments": aggregate_cells(cells, summaries),
    }
    return summary, stats


def run_figures(
    profile: "str | Mapping[str, object] | None",
    experiments: Sequence[str],
    workloads: Sequence[str] = ("uniform",),
    fault_specs: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """The serial figure path: a campaign run in this process, uncached.

    Used by ``cli table2|fig7|…``, the figure benchmarks and the experiment
    tests.  It is strict: a failing cell (including output validation)
    raises instead of being retried and quarantined, so a figure never
    comes back silently short of rows.
    """
    summary, _ = run_campaign(
        profile, experiments=experiments, workloads=workloads, jobs=1,
        cache_dir=None, fault_specs=fault_specs, strict=True,
    )
    return summary


def run_experiment(
    profile: "str | Mapping[str, object] | None",
    name: str,
    workloads: Sequence[str] = ("uniform",),
) -> Dict[str, List[Dict[str, object]]]:
    """One experiment's sections (``{section: rows}``) via :func:`run_figures`."""
    return run_figures(profile, (name,), workloads)["experiments"][name]


def campaign_to_json(summary: Mapping[str, object]) -> str:
    """Canonical JSON serialization (sorted keys, trailing newline)."""
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def format_campaign(summary: Mapping[str, object]) -> str:
    """Render the campaign summary as the familiar experiment text tables."""
    meta = summary["meta"]
    text = [
        f"Campaign: profile={meta['profile']}  cells={meta['cells']}  "
        f"workloads={','.join(meta['workloads'])}  rng={meta['rng_version']}"
    ]
    experiments = summary["experiments"]
    for experiment in CAMPAIGN_EXPERIMENTS:
        if experiment not in experiments:
            continue
        for section, rows in experiments[experiment].items():
            if not rows:
                continue
            title = EXPERIMENT_MODULES[experiment].TITLE
            if section not in ("rows",):
                title += f" [{section}]"
            text.append(format_table(rows, title=title))
    return "\n\n".join(text)
