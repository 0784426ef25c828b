"""Golden-trace regression: the tiny-profile campaign must match ``golden/``.

The simulator is deterministic, so every field of the campaign summary —
modelled clocks, phase breakdowns, imbalance, traffic — is reproducible to
the last bit.  These tests re-run the golden campaign (the ``tiny`` profile,
uniform + zipf workloads, all seven experiments) and compare field by field
against the checked-in JSONs, so a clock-model shift (like the PR 2
pivot-stream move or the PR 3 counter-RNG migration) becomes an explicit,
reviewed update of the golden files instead of silent drift::

    PYTHONPATH=src python tests/experiments/regen_golden.py

Failures list every differing field path with both values.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.campaign import CAMPAIGN_EXPERIMENTS

from regen_golden import GOLDEN_DIR, golden_summary

MAX_REPORTED_DIFFS = 25


def _diff(expected, actual, path="", out=None):
    """Collect `path: expected != actual` strings, depth-first."""
    if out is None:
        out = []
    if len(out) >= MAX_REPORTED_DIFFS:
        return out
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in expected:
                out.append(f"{sub}: UNEXPECTED field = {actual[key]!r}")
            elif key not in actual:
                out.append(f"{sub}: MISSING (golden = {expected[key]!r})")
            else:
                _diff(expected[key], actual[key], sub, out)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(f"{path}: length {len(expected)} != {len(actual)}")
        for i, (e, a) in enumerate(zip(expected, actual)):
            _diff(e, a, f"{path}[{i}]", out)
    elif expected != actual:
        out.append(f"{path}: golden {expected!r} != actual {actual!r}")
    return out


@pytest.fixture(scope="module")
def campaign_summary():
    return golden_summary()


def test_golden_files_exist():
    assert GOLDEN_DIR.is_dir()
    for experiment in CAMPAIGN_EXPERIMENTS:
        assert (GOLDEN_DIR / f"{experiment}.json").is_file(), (
            f"missing golden file for {experiment}; run "
            "PYTHONPATH=src python tests/experiments/regen_golden.py"
        )


def test_meta_matches_golden(campaign_summary):
    golden = json.loads((GOLDEN_DIR / "meta.json").read_text())
    diffs = _diff(golden, campaign_summary["meta"])
    assert not diffs, "campaign meta drifted from golden:\n  " + "\n  ".join(diffs)


@pytest.mark.parametrize("experiment", CAMPAIGN_EXPERIMENTS)
def test_experiment_matches_golden(campaign_summary, experiment):
    golden = json.loads((GOLDEN_DIR / f"{experiment}.json").read_text())
    # Round-trip the freshly computed sections through JSON so both sides
    # compare post-serialization values (e.g. tuples vs lists).
    actual = json.loads(json.dumps(campaign_summary["experiments"][experiment]))
    diffs = _diff(golden, actual)
    assert not diffs, (
        f"{experiment} campaign output drifted from tests/experiments/golden/"
        f"{experiment}.json — if the shift is intentional (e.g. an RNG-stream "
        "or cost-model change), regenerate with "
        "'PYTHONPATH=src python tests/experiments/regen_golden.py' and review "
        "the diff.  Field-by-field differences:\n  " + "\n  ".join(diffs)
    )
