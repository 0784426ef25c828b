"""Tests for :mod:`repro.experiments.harness`."""

import pytest

from repro.experiments.campaign import finalize_cell, run_cell
from repro.experiments.harness import (
    PAPER_TABLE2_SECONDS,
    SCALE_PROFILES,
    CampaignCell,
    _grid,
    _grouped,
    _level_candidates,
    _median_row,
    scale_profile,
)


class TestScaleProfiles:
    def test_known_profiles(self):
        for name in ("quick", "medium", "large"):
            profile = scale_profile(name)
            assert len(profile["p_values"]) >= 2
            assert len(profile["n_per_pe_values"]) >= 2

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            scale_profile("gigantic")

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_profile() == dict(SCALE_PROFILES["quick"])
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert scale_profile() == dict(SCALE_PROFILES["medium"])

    def test_paper_reference_numbers_present(self):
        assert PAPER_TABLE2_SECONDS[10**5][512] == pytest.approx(0.0228)
        assert PAPER_TABLE2_SECONDS[10**7][32768] == pytest.approx(6.0932)

    def test_tiny_profile_supports_multilevel(self):
        profile = scale_profile("tiny")
        assert all(p > profile["node_size"] for p in profile["p_values"])

    def test_paper_profile_reaches_the_papers_machine(self):
        profile = scale_profile("paper")
        assert max(profile["p_values"]) == 32768
        assert profile["engine"] == "flat"
        assert profile["reference_max_p"] == 1024


class TestCellHelpers:
    def test_level_candidates(self):
        profile = {"node_size": 4}
        assert _level_candidates(profile, 4) == (1,)
        assert _level_candidates(profile, 8) == (1, 2, 3)
        assert _level_candidates(dict(profile, level_counts=(2,)), 8) == (2,)
        paper = {"node_size": 16, "level_counts": "paper"}
        assert _level_candidates(paper, 8192) == (2,)
        assert _level_candidates(paper, 32768) == (3,)

    def test_grid_trims_secondary_workloads(self):
        profile = scale_profile("quick")
        assert _grid(profile, True) == (
            profile["p_values"], profile["n_per_pe_values"], profile["repetitions"]
        )
        ps, ns, reps = _grid(profile, False)
        assert ps == profile["p_values"][:2]
        assert ns == profile["n_per_pe_values"][:1]
        assert reps == 2

    def test_median_row_over_repetitions(self):
        cells = [
            finalize_cell(CampaignCell(
                experiment="harness", algorithm="rlm", p=4, n_per_pe=80,
                levels=1, node_size=2, repetition=rep,
            ))
            for rep in range(3)
        ]
        (members,) = _grouped([(c, run_cell(c)) for c in cells]).values()
        assert [c.repetition for c, _ in members] == [0, 1, 2]
        row = _median_row(members)
        assert row["time_min_s"] <= row["time_median_s"] <= row["time_max_s"]
        assert "phase_local_sort" in row

    def test_sampling_overrides_reach_ams(self):
        cell = finalize_cell(CampaignCell(
            experiment="harness", p=4, n_per_pe=200, levels=1, node_size=2,
            overpartitioning=4, oversampling=2.0,
        ))
        assert run_cell(cell)["imbalance"] >= 0

    def test_baseline_algorithms_supported(self):
        for algo in ("samplesort", "mergesort", "quicksort"):
            cell = finalize_cell(CampaignCell(
                experiment="harness", algorithm=algo, p=4, n_per_pe=50,
                levels=1, node_size=2,
            ))
            assert run_cell(cell)["total_time_s"] > 0
