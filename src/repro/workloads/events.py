"""“C-Saw in the wild” (§7.5): a time-varying blocking wave.

During the November 2017 protests, Pakistani ISPs blocked Twitter and
Instagram — each AS with its own mechanism, at its own time.  C-Saw users
who tried the services produced a timeline of (time, AS, service,
symptom) measurements in the global database.

:func:`run_blocking_wave` replays that.  Since the scenario-DSL redesign
the wave world is data — :func:`repro.scenarios.library.wave_spec` —
and :class:`BlockingWave` is a compatibility wrapper that compiles the
spec and drives it through :mod:`repro.scenarios.runner`; same-seed
output is bit-identical to the pre-redesign imperative builder (the
golden fingerprints in ``tests/data/scenario_golden.json`` prove it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core import CSawClient, ServerDB
from ..scenarios.compiler import CompiledScenario, ScenarioCompiler
from ..scenarios.library import WAVE_ASNS, wave_spec
from ..scenarios.runner import drive_clients, symptom_for
from ..scenarios.spec import EventSpec
from ..simnet.world import World

__all__ = ["WaveObservation", "BlockingWave", "run_blocking_wave"]


@dataclass(frozen=True)
class WaveObservation:
    """One detection as it landed in the global DB."""

    detected_at: float
    asn: int
    service: str
    symptom: str

    def render(self) -> str:
        hours = self.detected_at / 3600.0
        return (
            f"{self.service} found blocked at t+{hours:.1f}h from "
            f"AS {self.asn} (Response: {self.symptom})"
        )


class BlockingWave:
    """Builds the four-AS world (via :func:`wave_spec`) and replays the
    blocking timeline."""

    DEFAULT_ASNS = WAVE_ASNS

    def __init__(
        self,
        seed: int = 5,
        users_per_as: int = 4,
        browse_interval: float = 1800.0,
        duration: float = 36 * 3600.0,
    ):
        self.seed = seed
        self.users_per_as = users_per_as
        self.browse_interval = browse_interval
        self.duration = duration
        self.events: List[EventSpec] = []
        self.world: Optional[World] = None
        self.server: Optional[ServerDB] = None
        self.clients: List[CSawClient] = []
        self._compiled: Optional[CompiledScenario] = None

    # -- construction ---------------------------------------------------------

    def build(self, events: Optional[Sequence[EventSpec]] = None) -> "BlockingWave":
        """Compile the wave world with ``events`` as the censor timeline
        (default: :func:`~repro.scenarios.library.default_wave_events`,
        the paper's snapshot)."""
        spec = wave_spec(
            seed=self.seed,
            users_per_as=self.users_per_as,
            browse_interval=self.browse_interval,
            duration=self.duration,
            events=events,
        )
        self.events = list(spec.events)
        self._compiled = ScenarioCompiler().compile(spec)
        self.world = self._compiled.world
        self.server = self._compiled.server
        self.clients = self._compiled.clients
        return self

    # -- driving -----------------------------------------------------------------

    def run(self) -> List[WaveObservation]:
        if not self.clients:
            self.build()
        drive_clients(self._compiled)
        return self.observations()

    # -- results -------------------------------------------------------------------

    def observations(self) -> List[WaveObservation]:
        found = []
        for entry in self.server.all_entries():
            service = "Twitter" if "twitter" in entry.url else "Instagram"
            found.append(
                WaveObservation(
                    detected_at=entry.first_measured_at,
                    asn=entry.asn,
                    service=service,
                    symptom=symptom_for(entry.stages),
                )
            )
        return sorted(found, key=lambda o: o.detected_at)


def run_blocking_wave(seed: int = 5, **kwargs) -> List[WaveObservation]:
    return BlockingWave(seed=seed, **kwargs).run()
