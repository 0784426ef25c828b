"""Section 7.3: comparison with single-level codes (MP-sort and friends).

The paper compares AMS-sort against

* MP-sort [12], a single-level multiway mergesort that re-sorts received
  data from scratch — reported to be two to three orders of magnitude slower
  for small ``n/p`` at large ``p``,
* Solomonik & Kale's single-level hybrid, and
* Baidu-Sort / TritonSort (centralized splitter sample sort).

We reproduce the structural comparison: multi-level AMS-sort vs our
re-implemented single-level baselines (``mergesort`` = MP-sort style,
``samplesort`` = centralized sample sort, ``quicksort`` = log-p-passes
quicksort) on the same simulated machine.  The headline effect — the
single-level codes lose ground as ``p`` grows and ``n/p`` shrinks because
their startup count grows like ``p`` (or their volume like ``log p``) — is
what the benchmark checks.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.harness import (
    CampaignCell,
    _grouped,
    _level_candidates,
    _median_row,
)

TITLE = "Section 7.3 — AMS-sort vs single-level baselines"

BASELINES = ("mergesort", "samplesort", "quicksort")


def cells(profile, workload, primary) -> List[CampaignCell]:
    ps = tuple(profile["p_values"]) if primary else tuple(profile["p_values"])[:1]
    n_per_pe = int(profile["n_per_pe_values"][0])
    reps = min(2, int(profile["repetitions"])) if primary else 1
    cells = []
    for p in ps:
        candidates = _level_candidates(profile, p)
        if not primary:
            candidates = tuple(k for k in candidates if k <= 2)
        for levels in candidates:
            for rep in range(reps):
                cells.append(CampaignCell(
                    experiment="comparison", algorithm="ams", p=p,
                    n_per_pe=n_per_pe, levels=levels, workload=workload,
                    node_size=int(profile["node_size"]), repetition=rep,
                ))
        for baseline in BASELINES:
            for rep in range(reps):
                cells.append(CampaignCell(
                    experiment="comparison", algorithm=baseline, p=p,
                    n_per_pe=n_per_pe, levels=1, workload=workload,
                    node_size=int(profile["node_size"]), repetition=rep,
                ))
    return cells


def aggregate(pairs) -> Dict[str, List[Dict[str, object]]]:
    per_algo: Dict[tuple, Dict[str, object]] = {}
    order: List[tuple] = []
    for group, members in _grouped(pairs).items():
        row = _median_row(members)
        key = (group.workload, group.p, group.algorithm)
        if key not in per_algo:
            order.append(key)
            per_algo[key] = row
        elif row["time_median_s"] < per_algo[key]["time_median_s"]:
            per_algo[key] = row
    rows = []
    for workload, p, algorithm in order:
        row = per_algo[(workload, p, algorithm)]
        ams = per_algo.get((workload, p, "ams"))
        rows.append(
            {
                "workload": workload,
                "p": p,
                "algorithm": algorithm,
                "levels": row["levels"],
                "time_s": row["time_median_s"],
                # None (JSON null) when the point's AMS cells are missing
                # (quarantined) — never NaN, which is not valid JSON.
                "slowdown_vs_ams": (
                    float(row["time_median_s"]) / float(ams["time_median_s"])
                    if ams else None
                ),
                "max_startups": row["max_startups"],
            }
        )
    return {"rows": rows}
