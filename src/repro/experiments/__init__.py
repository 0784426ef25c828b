"""Experiment harness reproducing the paper's evaluation (Section 7, Appendix E).

Every module corresponds to one table or figure and defines it once, as
``cells(profile, workload, primary)`` (the single runs it needs) and
``aggregate(pairs)`` (the rows it reports):

* :mod:`repro.experiments.level_table` — Table 1 (group counts per level),
* :mod:`repro.experiments.weak_scaling` — Table 2 and Figure 8 (weak scaling
  wall-times and phase breakdown of AMS-sort with 1-3 levels),
* :mod:`repro.experiments.slowdown` — Figure 7 (RLM-sort vs AMS-sort),
* :mod:`repro.experiments.overpartitioning` — Figures 10 and 11 (effect of
  the oversampling / overpartitioning factors),
* :mod:`repro.experiments.variance` — Figure 12 (distribution of wall-times),
* :mod:`repro.experiments.comparison` — Section 7.3 (single-level baselines),
* :mod:`repro.experiments.faults` — degradation under injected faults
  (stragglers, dropped/degraded exchange rounds; extends the Figure 12
  robustness story beyond healthy machines).

:mod:`repro.experiments.campaign` executes the cells (serially or sharded,
optionally cached) and aggregates them; a single figure is a campaign of one
experiment (:func:`~repro.experiments.campaign.run_figures`, serial and
strict).  The paper's machine (up to 32768 MPI ranks with up to ``10^7``
elements each) does not fit into a pure-Python simulation, so every
experiment runs a *scaled* configuration by default.  The scale is a profile
from :data:`~repro.experiments.harness.SCALE_PROFILES`, chosen by name or
by the ``REPRO_SCALE`` environment variable: ``tiny`` (golden traces),
``quick`` [default], ``medium``, ``large``, ``paper`` (the paper's machine
sizes, flat engine only) and ``beyond`` (past the paper's largest machine).
"""

from repro.experiments.harness import (
    CampaignCell,
    scale_profile,
    SCALE_PROFILES,
)
from repro.experiments import (
    campaign,
    faults,
    level_table,
    weak_scaling,
    slowdown,
    overpartitioning,
    variance,
    comparison,
)

__all__ = [
    "CampaignCell",
    "scale_profile",
    "SCALE_PROFILES",
    "campaign",
    "faults",
    "level_table",
    "weak_scaling",
    "slowdown",
    "overpartitioning",
    "variance",
    "comparison",
]
