"""Shared experiment infrastructure: scale profiles, the cell spec, medians.

Every experiment module defines ``cells(profile, workload, primary)`` and
``aggregate(pairs)`` on top of the helpers here;
:mod:`repro.experiments.campaign` executes the cells and calls the
aggregations.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import summarize_runs


#: Scaled-down stand-ins for the paper's configurations.  The paper runs
#: p in {512, 2048, 8192, 32768} with n/p in {1e5, 1e6, 1e7}; a pure-Python
#: simulation must shrink both, keeping the *ratios* (per-PE work vs startup
#: cost) in a regime where the paper's qualitative effects are visible.
SCALE_PROFILES: Dict[str, Dict[str, object]] = {
    "tiny": {
        # Golden-trace profile: small enough that a full campaign runs in
        # seconds inside the tier-1 test-suite, large enough that every
        # experiment produces non-degenerate rows (p > node_size so multi-level
        # plans exist).
        "p_values": (8, 16),
        "n_per_pe_values": (60, 240),
        "repetitions": 2,
        "node_size": 4,
    },
    "quick": {
        "p_values": (16, 64, 256),
        "n_per_pe_values": (200, 2000, 20000),
        "repetitions": 3,
        "node_size": 4,
    },
    "medium": {
        "p_values": (64, 256, 1024),
        "n_per_pe_values": (500, 5000, 50000),
        "repetitions": 3,
        "node_size": 8,
    },
    "large": {
        "p_values": (512, 2048, 8192),
        "n_per_pe_values": (1000, 10000, 100000),
        "repetitions": 3,
        "node_size": 16,
    },
    "paper": {
        # The paper's machine sizes (Table 2 / Figs. 7-12).  Only the flat
        # engine can simulate these; the per-PE reference is infeasible past
        # ~1024 PEs, so campaign cells above `reference_max_p` are pinned by a
        # seeded-determinism re-run (like bench_engine_scaling) instead of a
        # cross-engine comparison, and skip output validation above
        # `validate_max_p`.  n/p is scaled down (the paper's 1e5..1e7 does not
        # fit a pure-Python simulation); the level policy follows Table 1:
        # three levels at p = 2^15, two below.
        "p_values": (512, 2048, 8192, 32768),
        "n_per_pe_values": (1000,),
        "repetitions": 1,
        "node_size": 16,
        "engine": "flat",
        "level_counts": "paper",
        "experiments": ("weak_scaling",),
        "workloads": ("uniform",),
        "validate_max_p": 1024,
        "reference_max_p": 1024,
    },
    "beyond": {
        # Past the paper (its largest machine is p = 2^15): "million-PE"
        # extrapolation rows, flat engine only, three levels each (the
        # "paper" level policy).  n/p is shrunk further so the p = 2^20
        # row's element count (2.7e8) stays simulable; every cell is above
        # `reference_max_p`, so the campaign pins it with a seeded
        # determinism re-run instead of a cross-engine comparison.  The
        # workspace arena bounds the per-level temporaries — see the README
        # "Memory & the beyond-paper tier" section.
        "p_values": (131072, 1048576),
        "n_per_pe_values": (256,),
        "repetitions": 1,
        "node_size": 16,
        "engine": "flat",
        "level_counts": "paper",
        "experiments": ("weak_scaling",),
        "workloads": ("uniform",),
        "validate_max_p": 1024,
        "reference_max_p": 1024,
        # Beyond-tier rows are single multi-minute simulations; a wedged
        # one (host swap death spiral) must fail the cell, not the run.
        # Generous: the p = 2^20 row takes ~2-3 minutes on one core.
        "cell_timeout_s": 1800.0,
    },
}

#: The configurations of the paper, for side-by-side reporting.
PAPER_P_VALUES = (512, 2048, 8192, 32768)
PAPER_N_PER_PE = (10**5, 10**6, 10**7)

#: Table 2 of the paper: median wall-times (seconds) of AMS-sort.
PAPER_TABLE2_SECONDS: Dict[int, Dict[int, float]] = {
    10**5: {512: 0.0228, 2048: 0.0277, 8192: 0.0359, 32768: 0.0707},
    10**6: {512: 0.2212, 2048: 0.2589, 8192: 0.2687, 32768: 0.9171},
    10**7: {512: 2.6523, 2048: 2.9797, 8192: 4.0625, 32768: 6.0932},
}


def scale_profile(name: Optional[str] = None) -> Dict[str, object]:
    """Return the scale profile selected by ``name`` or ``$REPRO_SCALE``."""
    if name is None:
        name = os.environ.get("REPRO_SCALE", "quick")
    name = name.lower()
    if name not in SCALE_PROFILES:
        known = ", ".join(sorted(SCALE_PROFILES))
        raise KeyError(f"unknown scale profile {name!r}; known: {known}")
    return dict(SCALE_PROFILES[name])


@dataclass(frozen=True)
class CampaignCell:
    """One unit of campaign work: a single repetition of a single config.

    ``kind == "sort"`` cells run one sorting algorithm on the simulator;
    ``kind == "plan"`` cells (level table) compute level plans only.  The
    ``seed`` is derived from the identity fields by
    :func:`~repro.experiments.campaign.derive_cell_seed` at expansion time,
    so a cell is self-contained: any process can execute it and obtain the
    same summary.
    """

    experiment: str
    kind: str = "sort"
    machine: str = "supermuc"
    algorithm: str = "ams"
    p: int = 16
    n_per_pe: int = 1000
    levels: int = 2
    workload: str = "uniform"
    node_size: int = 4
    repetition: int = 0
    series: str = ""
    delivery: str = "deterministic"
    overpartitioning: Optional[int] = None
    oversampling: Optional[float] = None
    samples_per_pe: Optional[int] = None
    engine: str = "flat"
    validate: bool = True
    determinism_check: bool = False
    #: Fault-injection spec string (see :mod:`repro.sim.faults`); "" = healthy.
    faults: str = ""
    seed: int = 0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "CampaignCell":
        return cls(**d)  # type: ignore[arg-type]

    def group_key(self) -> "CampaignCell":
        """The cell with repetition/seed erased: the aggregation group."""
        return replace(self, repetition=0, seed=0)


def _level_candidates(
    profile: Mapping[str, object], p: int, counts: Sequence[int] = (1, 2, 3)
) -> Tuple[int, ...]:
    policy = profile.get("level_counts")
    if policy == "paper":
        # Table 1: three levels at the largest machine (p = 2^15), two below.
        return (3,) if p > 8192 else (2,)
    if policy:
        counts = tuple(policy)  # type: ignore[arg-type]
    node = int(profile["node_size"])
    return tuple(k for k in counts if k == 1 or p > node)


def _grid(profile: Mapping[str, object], primary: bool):
    """(p_values, n_per_pe_values, repetitions) — full grid for the primary
    workload, a trimmed one (small machines/inputs) for the others."""
    ps = tuple(profile["p_values"])
    ns = tuple(profile["n_per_pe_values"])
    reps = int(profile["repetitions"])
    if primary:
        return ps, ns, reps
    return ps[:2], ns[:1], min(2, reps)


def _grouped(pairs: Iterable[Tuple[CampaignCell, Dict[str, object]]]):
    """Group (cell, summary) pairs by the repetition-erased cell, in order."""
    groups: Dict[CampaignCell, List[Tuple[CampaignCell, Dict[str, object]]]] = {}
    for cell, summary in pairs:
        groups.setdefault(cell.group_key(), []).append((cell, summary))
    for members in groups.values():
        members.sort(key=lambda cs: cs[0].repetition)
    return groups


def _median_row(members) -> Dict[str, object]:
    """Median/min/max over repetitions + the median run's detail columns."""
    times = [float(s["total_time_s"]) for _, s in members]
    stats = summarize_runs(times)
    median_idx = int(np.argsort(times)[len(times) // 2])
    cell, rep = members[median_idx]
    row: Dict[str, object] = {
        "workload": cell.workload,
        "n_per_pe": cell.n_per_pe,
        "p": cell.p,
        "levels": cell.levels,
        "time_median_s": stats["median"],
        "time_min_s": stats["min"],
        "time_max_s": stats["max"],
        "imbalance": rep["imbalance"],
        "max_startups": rep["traffic"]["max_startups_per_pe"],
        "max_words": rep["traffic"]["max_words_per_pe"],
    }
    for phase, value in rep["phase_times"].items():
        row[f"phase_{phase}"] = value
    return row
