"""Figures 10 and 11 (Appendix E): the effect of oversampling and overpartitioning.

The paper fixes ``p = 512`` MPI processes with ``n/p = 1e5`` elements each and
sweeps the number of samples per process ``a * b``:

* Figure 10 plots the **maximum imbalance** among the groups of the sorted
  output for ``b`` in {1, 8, 16} — overpartitioning (``b > 1``) reduces the
  imbalance dramatically for a given sample size,
* Figure 11 plots the **wall-time** (total and the splitter-selection phase
  alone) for oversampling factors ``a`` in {1, 8, 16} — more samples first
  help (better balance) and eventually hurt (sample sorting dominates).

The scaled reproduction sweeps the same parameters on the profile's smallest
machine.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.harness import CampaignCell, _grouped, _median_row

TITLE = "Figures 10/11 — oversampling and overpartitioning"


def cells(profile, workload, primary) -> List[CampaignCell]:
    ps = tuple(profile["p_values"])
    ns = tuple(profile["n_per_pe_values"])
    p = int(ps[0])
    n_per_pe = int(ns[min(1, len(ns) - 1)])
    node_size = int(profile["node_size"])
    reps = min(2, int(profile["repetitions"])) if primary else 1
    cells = []
    if primary:
        b_values, samples = (1, 8, 16), (4, 16, 64, 256)
        a_values = (1.0, 8.0, 16.0)
    else:
        b_values, samples = (1, 8), (16, 64)
        a_values = ()
    # Figure 10: imbalance vs samples per PE for several overpartitioning b.
    for b in b_values:
        for ab in samples:
            a = max(ab / b, 0.25)
            for rep in range(reps):
                cells.append(CampaignCell(
                    experiment="overpartitioning", series="fig10", algorithm="ams",
                    p=p, n_per_pe=n_per_pe, levels=1, workload=workload,
                    node_size=node_size, repetition=rep,
                    overpartitioning=int(b), oversampling=float(a),
                    samples_per_pe=int(ab),
                ))
    # Figure 11: wall-time vs samples per PE for several oversampling a.
    for a in a_values:
        for ab in samples:
            b = max(1, int(round(ab / a)))
            for rep in range(reps):
                cells.append(CampaignCell(
                    experiment="overpartitioning", series="fig11", algorithm="ams",
                    p=p, n_per_pe=n_per_pe, levels=1, workload=workload,
                    node_size=node_size, repetition=rep,
                    overpartitioning=int(b), oversampling=float(a),
                    samples_per_pe=int(ab),
                ))
    return cells


def aggregate(pairs) -> Dict[str, List[Dict[str, object]]]:
    fig10, fig11 = [], []
    for group, members in _grouped(pairs).items():
        row = _median_row(members)
        entry = {
            "workload": group.workload,
            "samples_per_pe": group.samples_per_pe,
            "b": group.overpartitioning,
            "a": group.oversampling,
            "imbalance": row["imbalance"],
            "time_median_s": row["time_median_s"],
        }
        if group.series == "fig11":
            entry["sampling_time_s"] = row.get("phase_splitter_selection", 0.0)
            fig11.append(entry)
        else:
            fig10.append(entry)
    return {"fig10": fig10, "fig11": fig11}
