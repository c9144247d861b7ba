"""Workloads: synthetic corpus, canned scenarios, pilot study, events."""

from .corpus import CATEGORY_MIX, Corpus, SiteSpec, build_corpus
from .events import BlockingWave, WaveObservation, run_blocking_wave
from .oni import FIG2_CATEGORIES, ONI_AS_SPECS, OniSweep, run_oni_sweep
from .pilot import (
    PilotConfig,
    PilotReport,
    PilotStudy,
    pilot_sweep,
    run_pilot,
    summarize_sweep,
)
from .scenarios import (
    BLOCKED_CATEGORIES,
    CaseStudyScenario,
    CentralizedScenario,
    centralized_country,
    pakistan_case_study,
)

__all__ = [
    "CATEGORY_MIX",
    "Corpus",
    "SiteSpec",
    "build_corpus",
    "BlockingWave",
    "WaveObservation",
    "run_blocking_wave",
    "FIG2_CATEGORIES",
    "ONI_AS_SPECS",
    "OniSweep",
    "run_oni_sweep",
    "PilotConfig",
    "PilotReport",
    "PilotStudy",
    "pilot_sweep",
    "run_pilot",
    "summarize_sweep",
    "BLOCKED_CATEGORIES",
    "CaseStudyScenario",
    "CentralizedScenario",
    "centralized_country",
    "pakistan_case_study",
]
