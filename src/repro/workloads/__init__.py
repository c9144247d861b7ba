"""Workloads: synthetic corpus, the case-study world, pilot study, ONI sweep."""

from .corpus import CATEGORY_MIX, Corpus, SiteSpec, build_corpus
from .oni import FIG2_CATEGORIES, ONI_AS_SPECS, OniSweep
from .pilot import (
    PilotConfig,
    PilotReport,
    PilotStudy,
    pilot_sweep,
    run_pilot,
    summarize_sweep,
)
from .scenarios import BLOCKED_CATEGORIES, CaseStudyScenario, pakistan_case_study

__all__ = [
    "CATEGORY_MIX",
    "Corpus",
    "SiteSpec",
    "build_corpus",
    "FIG2_CATEGORIES",
    "ONI_AS_SPECS",
    "OniSweep",
    "PilotConfig",
    "PilotReport",
    "PilotStudy",
    "pilot_sweep",
    "run_pilot",
    "summarize_sweep",
    "BLOCKED_CATEGORIES",
    "CaseStudyScenario",
    "pakistan_case_study",
]
