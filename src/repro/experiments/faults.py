"""Degradation under injected faults: slowdown vs fault rate per algorithm.

Extends the Figure 12 variance machinery from *healthy-machine* spread to
*faulty-machine* degradation: for a ladder of fault specs (increasing drop
rates, straggler mixes — see :mod:`repro.sim.faults`) each algorithm runs
the same workload on the same machine seed, and the table reports the
modelled slowdown relative to the fault-free baseline next to the recovery
cost tallies (dropped rounds, re-sent words, timeout idle time, straggle
time).  Because the retry draw is a truncated geometric in the drop rate
with a shared uniform, recovery cost is *exactly* monotone in the drop rate
for a fixed seed — which the golden trace pins and CI asserts.

The multi-level algorithms pay for faults differently: AMS-sort's few large
exchange rounds lose little to per-round timeouts but re-send big volumes,
while RLM-sort's regular grid rounds hit more (cheaper) retries — the same
startup-vs-volume trade-off the healthy-machine experiments measure,
exposed by failure recovery instead of message startups.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.metrics import summarize_runs
from repro.experiments.harness import CampaignCell, _grouped

TITLE = "Fault degradation — slowdown and recovery cost vs fault rate"


#: Default fault-spec ladder of the degradation experiment.  The empty spec
#: is the healthy baseline every slowdown is computed against; the drop-rate
#: rungs are spaced widely enough that recovery cost strictly increases even
#: at tiny scale (few exchanges → few geometric draws).
DEFAULT_FAULT_SPECS: Sequence[str] = (
    "",
    "droprate:0.05",
    "droprate:0.2",
    "droprate:0.4",
    "stragglers:0.25",
    "stragglers:0.25,droprate:0.2",
)

#: Trimmed ladder for secondary workloads in the campaign grid.  The bottom
#: rung starts higher than the primary ladder's: the trimmed grid runs the
#: smallest machine, whose few exchange rounds draw too few uniforms for a
#: 5% drop rate to fire at all.
TRIMMED_FAULT_SPECS: Sequence[str] = (
    "",
    "droprate:0.15",
    "droprate:0.25",
    "droprate:0.4",
)


def cells(profile, workload, primary) -> List[CampaignCell]:
    """Degradation grid: each algorithm climbs a ladder of fault specs.

    The healthy spec (``""``) is always present — it is the slowdown
    baseline — and the remaining rungs come from the profile's
    ``fault_specs`` override (the campaign CLI's ``--faults``) or the
    default ladders above.
    """
    ps = tuple(profile["p_values"])
    n_per_pe = int(tuple(profile["n_per_pe_values"])[0])
    node_size = int(profile["node_size"])
    if primary:
        p = int(ps[min(1, len(ps) - 1)])
        algorithms = ("ams", "rlm", "samplesort")
        specs = tuple(profile.get("fault_specs", DEFAULT_FAULT_SPECS))
        reps = min(2, int(profile["repetitions"]))
    else:
        p = int(ps[0])
        algorithms = ("ams", "rlm")
        specs = tuple(profile.get("fault_specs", TRIMMED_FAULT_SPECS))
        reps = 1
    if "" not in specs:
        specs = ("",) + specs
    cells = []
    for algorithm in algorithms:
        levels = 2 if (algorithm in ("ams", "rlm") and p > node_size) else 1
        for spec in specs:
            for rep in range(max(1, reps)):
                cells.append(CampaignCell(
                    experiment="faults", algorithm=algorithm, p=p,
                    n_per_pe=n_per_pe, levels=levels, workload=workload,
                    node_size=node_size, repetition=rep, faults=spec,
                ))
    return cells


def aggregate(pairs) -> Dict[str, List[Dict[str, object]]]:
    groups = _grouped(pairs)
    clean: Dict[tuple, float] = {}
    for group, members in groups.items():
        if group.faults == "":
            times = [float(s["total_time_s"]) for _, s in members]
            clean[(group.workload, group.algorithm, group.p, group.n_per_pe)] = (
                float(summarize_runs(times)["median"])
            )
    rows = []
    for group, members in groups.items():
        times = [float(s["total_time_s"]) for _, s in members]
        stats = summarize_runs(times)
        fault_totals: Dict[str, float] = {}
        for _, summary in members:
            for key, value in (summary.get("faults") or {}).items():
                if isinstance(value, (int, float)):
                    fault_totals[key] = fault_totals.get(key, 0.0) + value
        base = clean.get((group.workload, group.algorithm, group.p, group.n_per_pe))
        # None (JSON null) when no healthy baseline exists — never NaN,
        # which would break golden-trace equality (NaN != NaN).
        slowdown = float(stats["median"]) / base if base else None
        rows.append(
            {
                "workload": group.workload,
                "algorithm": group.algorithm,
                "p": group.p,
                "n_per_pe": group.n_per_pe,
                "levels": group.levels,
                "faults": group.faults,
                "time_median_s": float(stats["median"]),
                "slowdown_vs_clean": slowdown,
                "imbalance": max(float(s["imbalance"]) for _, s in members),
                "dropped_rounds": int(fault_totals.get("dropped_rounds", 0)),
                "resent_words": int(fault_totals.get("resent_words", 0)),
                "degraded_rounds": int(fault_totals.get("degraded_rounds", 0)),
                "hiccup_events": int(fault_totals.get("hiccup_events", 0)),
                "timeout_wait_s": float(fault_totals.get("timeout_wait_s", 0.0)),
                "recovery_s": float(fault_totals.get("recovery_s", 0.0)),
                "straggle_s": float(fault_totals.get("straggle_s", 0.0)),
            }
        )
    return {"rows": rows}
