"""Figure 12: distribution of wall-times over repeated runs.

The paper reports that the run-to-run fluctuation at large ``p`` is dominated
by the all-to-all exchange (network interference on the shared machine).
The simulator is deterministic for a fixed seed, so the reproduction varies
the input and the sampling seed across repetitions and reports the resulting
spread; the spread it observes comes from sampling noise (different splitter
quality per run), which is the algorithmic part of the fluctuation.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.metrics import summarize_runs
from repro.experiments.harness import CampaignCell, _grouped, _level_candidates

TITLE = "Figure 12 — distribution of modelled wall-times"


def cells(profile, workload, primary) -> List[CampaignCell]:
    ps = tuple(profile["p_values"])[:2] if primary else tuple(profile["p_values"])[:1]
    ns = tuple(profile["n_per_pe_values"])[:2] if primary else tuple(profile["n_per_pe_values"])[:1]
    reps = max(3, int(profile["repetitions"])) if primary else 3
    cells = []
    for n_per_pe in ns:
        for p in ps:
            candidates = _level_candidates(profile, p)
            if not primary:
                candidates = candidates[:1]
            for levels in candidates:
                for rep in range(reps):
                    cells.append(CampaignCell(
                        experiment="variance", algorithm="ams", p=p,
                        n_per_pe=n_per_pe, levels=levels, workload=workload,
                        node_size=int(profile["node_size"]), repetition=rep,
                    ))
    return cells


def aggregate(pairs) -> Dict[str, List[Dict[str, object]]]:
    rows = []
    for group, members in _grouped(pairs).items():
        times = [float(s["total_time_s"]) for _, s in members]
        stats = summarize_runs(times)
        rows.append(
            {
                "workload": group.workload,
                "p": group.p,
                "n_per_pe": group.n_per_pe,
                "levels": group.levels,
                "median_s": stats["median"],
                "min_s": stats["min"],
                "max_s": stats["max"],
                "relative_spread": stats["relative_spread"],
                "runs": stats["runs"],
            }
        )
    return {"rows": rows}
