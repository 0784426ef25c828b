"""Shape tests for the experiment modules (tiny configurations).

Each experiment is defined once, as ``cells(profile, workload, primary)``
plus ``aggregate(pairs)``; these tests run one-experiment campaigns — the
same path as ``cli table2`` and the figure benchmarks — and check the rows.
"""

import json

import pytest

from repro.experiments import campaign as cm
from repro.experiments.cli import EXPERIMENTS, main
from repro.experiments.harness import CampaignCell
from repro.experiments.level_table import PAPER_TABLE1
from repro.experiments.weak_scaling import paper_reference_rows

from regen_golden import GOLDEN_DIR


#: Small enough that every one-experiment campaign runs in about a second.
MICRO_PROFILE = {
    "name": "micro",
    "p_values": (4, 8),
    "n_per_pe_values": (50, 200),
    "repetitions": 1,
    "node_size": 2,
}


def run_experiment(experiment, workloads=("uniform",), **profile):
    return cm.run_experiment(dict(MICRO_PROFILE, **profile), experiment, workloads)


def fake_summary(total_time_s):
    """The fields of a sort-cell summary that the aggregations read."""
    return {
        "total_time_s": total_time_s,
        "imbalance": 0.0,
        "traffic": {"max_startups_per_pe": 1, "max_words_per_pe": 1},
        "phase_times": {},
    }


class TestRegistry:
    def test_every_module_defines_one_experiment(self):
        assert cm.CAMPAIGN_EXPERIMENTS == tuple(cm.EXPERIMENT_MODULES)
        for module in cm.EXPERIMENT_MODULES.values():
            assert module.TITLE
            assert callable(module.cells) and callable(module.aggregate)

    def test_cli_figures_name_campaign_experiments(self):
        assert set(EXPERIMENTS.values()) == set(cm.CAMPAIGN_EXPERIMENTS)

    @pytest.mark.parametrize("experiment", cm.CAMPAIGN_EXPERIMENTS)
    def test_one_experiment_campaign_matches_golden(self, experiment):
        summary, _ = cm.run_campaign(
            "tiny", experiments=(experiment,), workloads=("uniform",)
        )
        golden = json.loads((GOLDEN_DIR / f"{experiment}.json").read_text())
        expected = {
            section: [row for row in rows if row["workload"] == "uniform"]
            for section, rows in golden.items()
        }
        actual = json.loads(cm.campaign_to_json(summary))["experiments"][experiment]
        assert actual == expected


class TestLevelTable:
    def test_rows_match_paper_for_multilevel(self):
        rows = run_experiment("level_table")["rows"]
        assert {row["k"] for row in rows} == {1, 2, 3}
        for row in rows:
            if row["k"] == 1:
                continue  # the paper's k=1 row lists the node size
            for p in (512, 2048, 8192, 32768):
                assert row[f"p={p}"] == PAPER_TABLE1[row["k"]][p][row["level"] - 1]

    def test_plan_is_workload_invariant(self):
        section = run_experiment("level_table", workloads=("uniform", "zipf"))
        by_workload = {}
        for row in section["rows"]:
            rest = {k: v for k, v in row.items() if k != "workload"}
            by_workload.setdefault(row["workload"], []).append(rest)
        assert by_workload["uniform"] == by_workload["zipf"]


class TestWeakScaling:
    def test_rows_and_reductions(self):
        section = run_experiment("weak_scaling")
        rows = section["rows"]
        assert len(rows) == 2 * 2 * 3  # n/p x p x levels
        best = section["best"]
        assert len(best) == 4
        assert all("best_levels" in row for row in best)
        for row in rows:
            assert row["phase_splitter_selection"] >= 0
            assert row["phase_data_delivery"] > 0

    def test_paper_reference_rows(self):
        rows = paper_reference_rows()
        assert len(rows) == 12

    def test_level_policy_filters_small_machines(self):
        cells = cm.EXPERIMENT_MODULES["weak_scaling"].cells(
            dict(MICRO_PROFILE, node_size=4), "uniform", True
        )
        assert {c.levels for c in cells if c.p == 4} == {1}
        assert {c.levels for c in cells if c.p == 8} == {1, 2, 3}


class TestSlowdown:
    def test_rows_have_ratio(self):
        rows = run_experiment(
            "slowdown", p_values=(8,), n_per_pe_values=(100,)
        )["rows"]
        assert len(rows) == 1
        assert rows[0]["slowdown"] > 0
        assert rows[0]["ams_time_s"] > 0 and rows[0]["rlm_time_s"] > 0

    def test_best_level_is_the_fastest(self):
        module = cm.EXPERIMENT_MODULES["slowdown"]
        cells = module.cells(
            dict(MICRO_PROFILE, p_values=(8,), n_per_pe_values=(100,)),
            "uniform", True,
        )
        times = {("ams", 1): 3.0, ("ams", 2): 1.0, ("ams", 3): 2.0,
                 ("rlm", 1): 4.0, ("rlm", 2): 6.0, ("rlm", 3): 5.0}
        pairs = [(c, fake_summary(times[(c.algorithm, c.levels)])) for c in cells]
        (row,) = module.aggregate(pairs)["rows"]
        assert (row["ams_levels"], row["ams_time_s"]) == (2, 1.0)
        assert (row["rlm_levels"], row["rlm_time_s"]) == (1, 4.0)
        assert row["slowdown"] == pytest.approx(4.0)


class TestOverpartitioning:
    def test_imbalance_sweep_shape_effect(self):
        rows = run_experiment(
            "overpartitioning", p_values=(8,), n_per_pe_values=(500,)
        )["fig10"]
        assert len(rows) == 3 * 4  # b x samples per PE
        # for the same number of samples, higher b should not be (much) worse
        by_key = {(row["b"], row["samples_per_pe"]): row["imbalance"] for row in rows}
        assert by_key[(8, 64)] <= by_key[(1, 64)] + 0.25

    def test_walltime_sweep(self):
        rows = run_experiment(
            "overpartitioning", p_values=(8,), n_per_pe_values=(300,)
        )["fig11"]
        assert len(rows) == 3 * 4  # a x samples per PE
        assert all(row["sampling_time_s"] >= 0 for row in rows)

    def test_workload_axis(self):
        section = run_experiment(
            "overpartitioning", workloads=("uniform", "duplicates"),
            p_values=(8,), n_per_pe_values=(200,),
        )
        rows = [row for row in section["fig10"] if row["workload"] == "duplicates"]
        assert rows
        # secondary workloads ride the trimmed grid: no Figure 11 series
        assert {row["workload"] for row in section["fig11"]} == {"uniform"}


class TestVariance:
    def test_rows(self):
        rows = run_experiment(
            "variance", p_values=(4,), n_per_pe_values=(100,), level_counts=(1,)
        )["rows"]
        assert len(rows) == 1
        assert rows[0]["runs"] == 3
        assert rows[0]["workload"] == "uniform"
        assert rows[0]["min_s"] <= rows[0]["median_s"] <= rows[0]["max_s"]

    def test_workload_axis(self):
        rows = run_experiment(
            "variance", workloads=("zipf",), p_values=(4,),
            n_per_pe_values=(100,), level_counts=(1,),
        )["rows"]
        assert rows[0]["workload"] == "zipf"


class TestComparison:
    def test_single_level_slowdowns_reported(self):
        rows = run_experiment(
            "comparison", p_values=(8,), n_per_pe_values=(100,)
        )["rows"]
        algos = {row["algorithm"] for row in rows}
        assert algos == {"ams", "mergesort", "samplesort", "quicksort"}
        for row in rows:
            assert row["time_s"] > 0
            assert row["workload"] == "uniform"

    def test_workload_axis(self):
        rows = run_experiment(
            "comparison", workloads=("staggered",), p_values=(8,),
            n_per_pe_values=(100,),
        )["rows"]
        assert rows and all(row["workload"] == "staggered" for row in rows)

    def test_missing_ams_cells_serialize_as_null(self):
        # Quarantined AMS cells leave a point without its reference time;
        # the slowdown must be JSON null, never NaN (which is not JSON).
        cells = cm.expand_campaign(
            MICRO_PROFILE, experiments=("comparison",), workloads=("uniform",)
        )
        summaries, _ = cm.execute_cells(cells)
        for cell in cells:
            if cell.algorithm == "ams":
                del summaries[cm.cell_key(cell)]
        summary = {"meta": {}, "experiments": cm.aggregate_cells(cells, summaries)}

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        doc = json.loads(cm.campaign_to_json(summary), parse_constant=reject)
        rows = doc["experiments"]["comparison"]["rows"]
        assert rows and all(row["slowdown_vs_ams"] is None for row in rows)


class TestFaults:
    def test_healthy_baseline_always_in_the_ladder(self):
        cells = cm.EXPERIMENT_MODULES["faults"].cells(
            dict(MICRO_PROFILE, fault_specs=("droprate:0.2",)), "uniform", True
        )
        assert {c.faults for c in cells} == {"", "droprate:0.2"}
        assert {c.algorithm for c in cells} == {"ams", "rlm", "samplesort"}

    def test_slowdown_against_the_clean_run(self):
        module = cm.EXPERIMENT_MODULES["faults"]
        clean = CampaignCell(experiment="faults", faults="")
        faulty = CampaignCell(experiment="faults", faults="droprate:0.2")
        rows = module.aggregate(
            [(clean, fake_summary(2.0)), (faulty, fake_summary(3.0))]
        )["rows"]
        assert [row["slowdown_vs_clean"] for row in rows] == [1.0, 1.5]


class TestCLI:
    def test_registry_covers_all_figures(self):
        assert set(EXPERIMENTS) >= {"table1", "table2", "fig7", "fig8",
                                    "fig10", "fig11", "fig12", "sec73"}

    def test_main_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_main_workload_flag(self, capsys):
        assert main(["table1", "--workload", "zipf"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "zipf" in out

    def test_main_runs_a_figure_as_a_campaign(self, capsys):
        assert main(["fig7", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Campaign: profile=tiny" in out and "Figure 7" in out

    def test_main_table2_prints_the_paper_reference(self, capsys):
        assert main(["table2", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Paper reference (Table 2" in out

    def test_main_raises_on_a_failing_cell(self, monkeypatch):
        def broken(cell):
            raise RuntimeError("cell failed validation")

        monkeypatch.setattr(cm, "run_cell", broken)
        with pytest.raises(RuntimeError, match="cell failed validation"):
            main(["fig7", "--scale", "tiny"])

    def test_main_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["does-not-exist"])

    def test_paper_scale_is_campaign_only(self):
        with pytest.raises(SystemExit):
            main(["table2", "--scale", "paper"])

    def test_faults_ladder_needs_the_faults_experiment(self):
        with pytest.raises(SystemExit):
            main(["table1", "--faults", "droprate:0.1"])

    def test_campaign_workloads_help_lists_the_default_axis(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"(default: {' '.join(cm.CAMPAIGN_WORKLOADS)})" in help_text
