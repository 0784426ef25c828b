"""Table 1: selection of the group count ``r`` per level for weak scaling.

The rows hold our :func:`~repro.core.config.level_plan` for the paper's
machine sizes; :data:`PAPER_TABLE1` holds the paper's values.  The paper's
k=1 row lists the node size (16); a single-level algorithm must split into
r=p groups to finish in one level, which is what ``level_plan`` returns.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.harness import PAPER_P_VALUES, CampaignCell

TITLE = "Table 1 — group counts r per level"

#: The r-values listed in Table 1 of the paper (levels are 1-indexed).
PAPER_TABLE1: Dict[int, Dict[int, List[int]]] = {
    1: {512: [16], 2048: [16], 8192: [16], 32768: [16]},
    2: {512: [32, 16], 2048: [128, 16], 8192: [512, 16], 32768: [2048, 16]},
    3: {512: [8, 4, 16], 2048: [16, 8, 16], 8192: [32, 16, 16], 32768: [64, 32, 16]},
}


def cells(profile, workload, primary) -> List[CampaignCell]:
    # The plan is workload-invariant; the workload is recorded anyway so
    # every experiment's rows share the campaign-wide schema.
    return [
        CampaignCell(
            experiment="level_table", kind="plan", algorithm="plan",
            p=int(PAPER_P_VALUES[0]), n_per_pe=0, levels=k, workload=workload,
            node_size=16, repetition=0, validate=False,
        )
        for k in (1, 2, 3)
    ]


def aggregate(pairs) -> Dict[str, List[Dict[str, object]]]:
    # The plan is workload-invariant, but one row set per workload is kept so
    # every experiment's rows share the campaign-wide workload column.
    rows = []
    for cell, summary in pairs:
        plans = {int(p): plan for p, plan in summary["plan_by_p"].items()}
        depth = cell.levels
        for level in range(depth):
            row: Dict[str, object] = {
                "workload": cell.workload,
                "k": depth,
                "level": level + 1,
            }
            for p in PAPER_P_VALUES:
                row[f"p={p}"] = plans[p][level] if level < len(plans[p]) else None
            rows.append(row)
    return {"rows": rows}
