"""Table 2 and Figure 8: weak scaling of AMS-sort with 1-3 levels.

The paper's experiment: for every ``p`` in {512, 2048, 8192, 32768} and
``n/p`` in {1e5, 1e6, 1e7}, run AMS-sort with 1, 2 and 3 levels and report

* Table 2 — the median wall-time of the best level choice (``best``),
* Figure 8 — the per-phase breakdown (splitter selection, bucket processing,
  data delivery, local sort) of every level count (``rows``).

The scaled reproduction runs the same sweep on smaller ``p`` and ``n/p``
(profile-controlled) on the simulated SuperMUC-like machine;
:func:`paper_reference_rows` gives the paper's numbers for side-by-side
output.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.harness import (
    PAPER_TABLE2_SECONDS,
    CampaignCell,
    _grid,
    _grouped,
    _level_candidates,
    _median_row,
)

TITLE = "Table 2 / Figure 8 — AMS-sort weak scaling"


def cells(profile, workload, primary) -> List[CampaignCell]:
    ps, ns, reps = _grid(profile, primary)
    cells = []
    for n_per_pe in ns:
        for p in ps:
            candidates = _level_candidates(profile, p)
            if not primary:
                candidates = tuple(k for k in candidates if k <= 2)
            for levels in candidates:
                for rep in range(max(1, reps)):
                    cells.append(CampaignCell(
                        experiment="weak_scaling", algorithm="ams", p=p,
                        n_per_pe=n_per_pe, levels=levels, workload=workload,
                        node_size=int(profile["node_size"]), repetition=rep,
                    ))
    return cells


def aggregate(pairs) -> Dict[str, List[Dict[str, object]]]:
    rows = [_median_row(members) for members in _grouped(pairs).values()]
    best: Dict[tuple, Dict[str, object]] = {}
    for row in rows:
        key = (row["workload"], row["n_per_pe"], row["p"])
        if key not in best or row["time_median_s"] < best[key]["time_median_s"]:
            best[key] = row
    best_rows = [
        {
            "workload": workload,
            "n_per_pe": n_per_pe,
            "p": p,
            "best_levels": row["levels"],
            "time_median_s": row["time_median_s"],
            "imbalance": row["imbalance"],
            "max_startups": row["max_startups"],
        }
        for (workload, n_per_pe, p), row in sorted(
            best.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
        )
    ]
    return {"rows": rows, "best": best_rows}


def paper_reference_rows() -> List[Dict[str, object]]:
    """The paper's Table 2 (median wall-times on SuperMUC) for side-by-side output."""
    out: List[Dict[str, object]] = []
    for n_per_pe, by_p in sorted(PAPER_TABLE2_SECONDS.items()):
        for p, seconds in sorted(by_p.items()):
            out.append({"n_per_pe": n_per_pe, "p": p, "paper_time_s": seconds})
    return out
