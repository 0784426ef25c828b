"""Figure 7: slowdown of RLM-sort compared to AMS-sort.

For every ``(p, n/p)`` the paper picks, for each algorithm, the level count
with the best wall-time and plots ``T_RLM / T_AMS``.  The slowdown is larger
than one almost everywhere and grows for small ``n/p`` and large ``p``,
matching the ``log^2 p`` gap between the isoefficiency functions.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.metrics import slowdown as slowdown_metric
from repro.experiments.harness import (
    CampaignCell,
    _grid,
    _grouped,
    _level_candidates,
    _median_row,
)

TITLE = "Figure 7 — slowdown of RLM-sort vs AMS-sort"


def cells(profile, workload, primary) -> List[CampaignCell]:
    ps, ns, reps = _grid(profile, primary)
    if primary:
        ps, ns = ps, ns[:2]
    else:
        ps, ns = ps[:1], ns[:1]
    cells = []
    for n_per_pe in ns:
        for p in ps:
            candidates = _level_candidates(profile, p)
            if not primary:
                candidates = tuple(k for k in candidates if k <= 2)
            for algorithm in ("ams", "rlm"):
                for levels in candidates:
                    for rep in range(max(1, reps)):
                        cells.append(CampaignCell(
                            experiment="slowdown", algorithm=algorithm, p=p,
                            n_per_pe=n_per_pe, levels=levels, workload=workload,
                            node_size=int(profile["node_size"]), repetition=rep,
                        ))
    return cells


def aggregate(pairs) -> Dict[str, List[Dict[str, object]]]:
    per_algo: Dict[tuple, Dict[str, object]] = {}
    for group, members in _grouped(pairs).items():
        row = _median_row(members)
        key = (group.workload, group.n_per_pe, group.p, group.algorithm)
        if key not in per_algo or row["time_median_s"] < per_algo[key]["time_median_s"]:
            per_algo[key] = row
    rows = []
    seen = set()
    for (workload, n_per_pe, p, _), _row in sorted(per_algo.items()):
        point = (workload, n_per_pe, p)
        if point in seen:
            continue
        seen.add(point)
        best_ams = per_algo.get((workload, n_per_pe, p, "ams"))
        best_rlm = per_algo.get((workload, n_per_pe, p, "rlm"))
        if best_ams is None or best_rlm is None:
            continue
        rows.append(
            {
                "workload": workload,
                "p": p,
                "n_per_pe": n_per_pe,
                "ams_levels": best_ams["levels"],
                "ams_time_s": best_ams["time_median_s"],
                "rlm_levels": best_rlm["levels"],
                "rlm_time_s": best_rlm["time_median_s"],
                "slowdown": slowdown_metric(
                    float(best_rlm["time_median_s"]), float(best_ams["time_median_s"])
                ),
            }
        )
    return {"rows": rows}
