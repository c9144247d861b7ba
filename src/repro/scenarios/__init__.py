"""Declarative scenarios: spec -> compile -> run -> check.

One spec-driven API for worlds, censors, workloads, and expected
verdicts.  See DESIGN.md §10 for the schema and the contract; the
shipped packs live under ``repro/scenarios/packs/``.

>>> from repro.scenarios import load_spec, ScenarioRunner
>>> outcome = ScenarioRunner().run(load_spec("vantage-disagreement"))
>>> print(outcome.report.render())
"""

from __future__ import annotations

import os
from typing import List, Tuple

from .compiler import CompiledScenario, ScenarioCompiler
from .expect import ExpectationCheck, ExpectationReport, evaluate
from .library import pakistan_spec, wave_spec
from .runner import (
    ProbeVerdict,
    ReputationOutcome,
    ScenarioObservation,
    ScenarioOutcome,
    ScenarioRunner,
    SYMPTOM_LABELS,
    symptom_for,
)
from .spec import ScenarioSpec, SpecError, load_toml_file

__all__ = [
    "ScenarioSpec",
    "SpecError",
    "ScenarioCompiler",
    "CompiledScenario",
    "ScenarioRunner",
    "ScenarioOutcome",
    "ScenarioObservation",
    "ProbeVerdict",
    "ReputationOutcome",
    "ExpectationCheck",
    "ExpectationReport",
    "evaluate",
    "SYMPTOM_LABELS",
    "symptom_for",
    "pakistan_spec",
    "wave_spec",
    "load_spec",
    "load_toml_file",
    "shipped_packs",
    "PACKS_DIR",
]

PACKS_DIR = os.path.join(os.path.dirname(__file__), "packs")


def shipped_packs() -> List[Tuple[str, str]]:
    """(pack name, path) for every TOML pack shipped with the repo."""
    packs = []
    for filename in sorted(os.listdir(PACKS_DIR)):
        if filename.endswith(".toml"):
            path = os.path.join(PACKS_DIR, filename)
            packs.append((os.path.splitext(filename)[0].replace("_", "-"), path))
    return packs


def load_spec(name_or_path: str) -> ScenarioSpec:
    """Load a spec from a shipped pack name or a TOML file path."""
    if os.path.exists(name_or_path):
        return ScenarioSpec.from_toml(name_or_path)
    for name, path in shipped_packs():
        if name == name_or_path:
            return ScenarioSpec.from_toml(path)
    known = ", ".join(name for name, _ in shipped_packs())
    raise SpecError(
        f"no such scenario: {name_or_path!r} (shipped packs: {known}; "
        "or pass a path to a .toml file)"
    )
