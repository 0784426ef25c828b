"""Benchmark / reproduction of Table 1: group counts r per recursion level.

Table 1 of the paper lists, for the weak-scaling experiments, how many groups
every level of AMS-sort splits the MPI processes into.  The reproduction
checks that :func:`repro.core.config.level_plan` generates exactly the
paper's choices (for the multi-level rows) and benchmarks the planning
routine itself.
"""

from conftest import bench_profile, publish

from repro.analysis.tables import format_table
from repro.core.config import level_plan
from repro.experiments.campaign import run_experiment
from repro.experiments.level_table import PAPER_TABLE1, TITLE


PAPER_P = (512, 2048, 8192, 32768)


def plan_all() -> dict:
    """Compute the level plan for every paper configuration."""
    return {
        (k, p): level_plan(p, k, node_size=16)
        for k in (1, 2, 3)
        for p in PAPER_P
    }


def test_table1_level_plan(benchmark):
    plans = benchmark(plan_all)
    # The multi-level rows must match the paper exactly.
    for k in (2, 3):
        for p in PAPER_P:
            assert plans[(k, p)] == PAPER_TABLE1[k][p], (k, p)
    rows = run_experiment(bench_profile(), "level_table")["rows"]
    publish("table1_level_config", format_table(rows, title=TITLE))
