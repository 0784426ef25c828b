"""Benchmark / reproduction of Figure 11: wall-time vs samples per PE.

Figure 11 of the paper plots the total wall-time and the splitter-selection
("sampling") time of 1-level AMS-sort against the number of samples per
process, for oversampling factors ``a`` in {1, 8, 16}.  Expected shape: a
U-curve — too few samples hurt (imbalance makes delivery and local sorting
slower), too many samples hurt (sampling itself starts to dominate), and the
sampling share of the wall-time grows monotonically with the sample count.
The campaign grid (4 to 256 samples per PE) shows the right branch: at every
``a`` the largest sample count is slower than the best one.
"""

from conftest import publish

from repro.analysis.tables import format_table
from repro.experiments.campaign import run_experiment


A_VALUES = (1.0, 8.0, 16.0)


def test_fig11_overpartitioning_walltime(benchmark, profile):
    section = benchmark.pedantic(
        run_experiment, args=(profile, "overpartitioning"), rounds=1, iterations=1
    )
    rows = section["fig11"]
    text = format_table(
        rows,
        title=(
            "Figure 11 (scaled reproduction) — total wall-time and sampling time of "
            "1-level AMS-sort vs samples per PE (a*b), for a in {1, 8, 16}"
        ),
    )
    publish("fig11_overpartitioning", text)

    for a in A_VALUES:
        series = [row for row in rows if row["a"] == a]
        series.sort(key=lambda r: r["samples_per_pe"])
        sampling = [row["sampling_time_s"] for row in series]
        # Sampling cost grows with the number of samples drawn.
        assert sampling[-1] >= sampling[0]
        # The largest sample count is slower than the best configuration
        # (the right branch of the U-curve).
        totals = [row["time_median_s"] for row in series]
        assert totals[-1] > min(totals)
