"""ScenarioRunner: execute a compiled scenario and check expectations.

Three execution modes, resolved from the spec:

- ``clients`` — full C-Saw populations browsing through the simulated
  Internet while timed blocking events land (the §7.5 wave shape);
- ``probe`` — no workload, just direct-path measurements from every
  vantage the expectations name (Table-1-style verdict worlds);
- ``cohort`` — fleet-scale mean-field cohorts via :mod:`repro.core.fleet`,
  optionally sharded across processes via :mod:`repro.runner`.  Sybil
  adversaries are reporter planes of the cohort; when the spec declares
  ``[expect.reputation]`` the reputation analyzer judges the storm's
  server afterwards.

The client driver reproduces the pre-DSL blocking-wave loop
draw-for-draw (same stream names, same jitter, same think-time), so the
§7.5 wave runs here alone (``ScenarioRunner(workers=1).run(wave_spec())``)
with bit-identical same-seed output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.records import BlockType
from .compiler import CompiledScenario, ScenarioCompiler
from .expect import ExpectationReport, evaluate
from .spec import ScenarioSpec, SpecError

__all__ = [
    "SYMPTOM_LABELS",
    "symptom_for",
    "ProbeVerdict",
    "ScenarioObservation",
    "ReputationOutcome",
    "ScenarioOutcome",
    "ScenarioRunner",
    "drive_clients",
]

# Symptom labels in the paper's snapshot vocabulary (§7.5).
SYMPTOM_LABELS = {
    "http-get-timeout": "HTTP_GET_TIMEOUT",
    "block-page": "HTTP_GET_BLOCKPAGE",
    "dns-redirect": "DNS blocking",
    "dns-nxdomain": "DNS blocking",
    "dns-servfail": "DNS blocking",
    "dns-timeout": "DNS blocking",
    "tcp-timeout": "TCP/IP blocking",
}


def symptom_for(stages) -> str:
    """Collapse a stage list onto one snapshot label (DNS wins)."""
    symptom = "unknown"
    for stage in stages:
        label = SYMPTOM_LABELS.get(stage.value)
        if label is not None:
            symptom = label
            if label == "DNS blocking":
                break
    return symptom


@dataclass(frozen=True)
class ProbeVerdict:
    """Direct-path measurement outcome from one vantage."""

    status: str
    stages: Tuple[str, ...]
    suspected_blockpage: bool
    detection_time: float


@dataclass(frozen=True)
class ScenarioObservation:
    """One global-DB detection, in snapshot vocabulary."""

    detected_at: float
    asn: int
    url: str
    symptom: str


@dataclass
class ReputationOutcome:
    """What the reputation pass concluded about each plane's reporters.

    Keys are plane names.  URL lists are sorted; a cohort's URLs name
    their AS, so a URL stands for its (URL, AS) entry.
    """

    flagged: Tuple[str, ...]  # revoked reporter UUIDs, ledger order
    flag_counts: Dict[str, Tuple[int, int]]  # plane -> (flagged, reporters)
    removed_urls: Dict[str, List[str]]  # plane -> vouched URLs now gone
    surviving_urls: Dict[str, List[str]]  # plane -> vouched URLs still listed


@dataclass
class ScenarioOutcome:
    """Everything one run produced, plus the expectation report."""

    spec: ScenarioSpec
    mode: str
    compiled: Optional[CompiledScenario] = None
    observations: List[ScenarioObservation] = field(default_factory=list)
    verdicts: Dict[Tuple[int, str], ProbeVerdict] = field(default_factory=dict)
    classifications: Dict[str, str] = field(default_factory=dict)
    events: List = field(default_factory=list)  # CompiledEvents that fired
    fleet: Optional[object] = None  # FleetMetrics
    reputation: Optional[ReputationOutcome] = None
    report: ExpectationReport = None  # type: ignore[assignment]


# -- the client-mode driver (the pre-DSL wave loop, verbatim) ------------------


def _censor_process(world, events):
    env = world.env
    for event in events:  # pre-sorted by time
        yield env.timeout(max(0.0, event.time - env.now))
        event.policy.add_rule(event.rule)


def _user_process(world, client, rng, urls, workload, duration):
    env = world.env
    yield env.timeout(rng.uniform(0, workload.start_jitter))
    yield from client.install()
    client.start_background(until=duration)
    while env.now < duration:
        yield env.timeout(rng.expovariate(1.0 / workload.interval))
        url = rng.choice(urls)
        response = yield from client.request(url)
        yield response.measurement_process


def drive_clients(compiled: CompiledScenario) -> None:
    """Run the browse workload to the spec's horizon (censor events
    first, then one behaviour process per client, as the legacy driver
    ordered them)."""
    spec = compiled.spec
    world = compiled.world
    duration = spec.execution.duration
    world.env.process(_censor_process(world, compiled.events))
    urls = list(spec.workload.urls)
    for index, client in enumerate(compiled.clients):
        rng = world.rngs.fork(f"{spec.workload.stream_prefix}-{index}").stream(
            "behaviour"
        )
        world.env.process(
            _user_process(world, client, rng, urls, spec.workload, duration)
        )
    world.env.run()


# -- the runner ----------------------------------------------------------------


class ScenarioRunner:
    """Compile, execute, observe, check."""

    def __init__(self, workers: Optional[int] = None):
        self.workers = workers

    def run(self, spec: ScenarioSpec) -> ScenarioOutcome:
        mode = spec.resolved_mode()
        if mode == "cohort":
            outcome = self._run_cohort(spec)
        else:
            outcome = self._run_world(spec, browse=(mode == "clients"))
        outcome.report = evaluate(spec, outcome)
        return outcome

    # -- world-backed modes ---------------------------------------------------

    def _run_world(self, spec: ScenarioSpec, browse: bool) -> ScenarioOutcome:
        compiled = ScenarioCompiler().compile(spec)
        outcome = ScenarioOutcome(
            spec=spec,
            mode="clients" if browse else "probe",
            compiled=compiled,
            events=list(compiled.events),
        )
        if browse:
            drive_clients(compiled)
            if compiled.server is not None:
                outcome.observations = [
                    ScenarioObservation(
                        detected_at=entry.first_measured_at,
                        asn=entry.asn,
                        url=entry.url,
                        symptom=symptom_for(entry.stages),
                    )
                    for entry in compiled.server.all_entries()
                ]
                outcome.observations.sort(key=lambda o: (o.detected_at, o.asn, o.url))
        else:
            # Probe-only worlds still honour static events: install every
            # rule up front so verdicts reflect the end state.
            for event in compiled.events:
                event.policy.add_rule(event.rule)
        self._probe_expectations(compiled, outcome)
        return outcome

    def _probe_expectations(
        self, compiled: CompiledScenario, outcome: ScenarioOutcome
    ) -> None:
        """Measure the direct path for every (AS, URL) the expectations
        name — after the workload, so probes see the final censor state."""
        from ..core.detection import measure_direct_path

        spec = compiled.spec
        targets: List[Tuple[int, str]] = []
        for want in spec.expect.verdicts:
            targets.append((want.asn, want.url))
        class_urls = [want.url for want in spec.expect.classifications]
        for url in class_urls:
            for as_spec in spec.ases:
                targets.append((as_spec.asn, url))
        seen = dict.fromkeys(targets)  # ordered dedup

        world = compiled.world
        probes: Dict[Tuple[int, str], ProbeVerdict] = {}
        probe_clients: Dict[int, tuple] = {}
        for index, (asn, url) in enumerate(seen):
            isp = compiled.isps.get(asn)
            if isp is None:
                raise SpecError(f"expect: no AS {asn} in this scenario")
            if asn not in probe_clients:
                probe_clients[asn] = world.add_client(
                    f"scenario-probe-{asn}", [isp]
                )
            client, access = probe_clients[asn]
            ctx = world.new_ctx(client, access, stream=f"scenario-probe/{asn}/{index}")
            measured = world.run_process(measure_direct_path(world, ctx, url))
            probes[(asn, url)] = ProbeVerdict(
                status=measured.status.value,
                stages=tuple(s.value for s in measured.stages),
                suspected_blockpage=measured.suspected_blockpage,
                detection_time=measured.detection_time,
            )
        outcome.verdicts = probes

        for url in class_urls:
            per_as = [probes[(a.asn, url)] for a in spec.ases]
            outcome.classifications[url] = _classify(per_as)

    # -- cohort mode ----------------------------------------------------------

    def _run_cohort(self, spec: ScenarioSpec) -> ScenarioOutcome:
        from ..core import ServerDB
        from ..core.fleet import run_fleet_storm, run_fleet_storm_sharded

        cohort = spec.cohort
        kwargs = dict(
            seed=spec.seed,
            n_ases=cohort.n_ases,
            clients_per_as=cohort.clients_per_as,
            urls_per_as=cohort.urls_per_as,
            pull_interval=cohort.pull_interval,
            wave_at=cohort.wave_at,
            horizon=cohort.horizon if cohort.horizon > 0 else None,
            asn_base=cohort.asn_base,
            planes=ScenarioCompiler.compile_planes(spec),
            wave_stagger=cohort.wave_stagger,
        )
        if cohort.sharded:
            # Exact under sharding: plane sampling / wave stagger derive
            # from (seed, AS identity) and FleetMetrics.merge folds the
            # per-plane counters and curves across disjoint AS slices.
            metrics = run_fleet_storm_sharded(workers=self.workers, **kwargs)
        else:
            server = ServerDB(entry_ttl=None)
            metrics = run_fleet_storm(server=server, **kwargs)
        outcome = ScenarioOutcome(spec=spec, mode="cohort", fleet=metrics)
        if spec.expect.reputation is not None:  # validate(): never sharded
            outcome.reputation = _reputation_pass(server)
        return outcome


def _reputation_pass(server) -> ReputationOutcome:
    """Record each plane's reporters and vouched entries, then flag and
    revoke with the analyzer's default thresholds (§5)."""
    from ..core.reputation import ReputationAnalyzer

    ledger = server.voting
    reporters: Dict[str, List[str]] = {}
    vouched: Dict[str, Set[Tuple[str, int]]] = {}
    for uuid in ledger.clients():
        plane = ledger.plane_of(uuid)
        reporters.setdefault(plane, []).append(uuid)
        vouched.setdefault(plane, set()).update(ledger.reports_of(uuid))
    flagged = tuple(ReputationAnalyzer(server).enforce())
    outcome = ReputationOutcome(
        flagged=flagged, flag_counts={}, removed_urls={}, surviving_urls={}
    )
    for plane, uuids in reporters.items():
        outcome.flag_counts[plane] = (len(set(uuids) & set(flagged)), len(uuids))
        keys = sorted(vouched[plane])
        outcome.removed_urls[plane] = [
            url for url, asn in keys if server.entry(url, asn) is None
        ]
        outcome.surviving_urls[plane] = [
            url for url, asn in keys if server.entry(url, asn) is not None
        ]
    return outcome


def _classify(per_as: List[ProbeVerdict]) -> str:
    """Cross-vantage diagnosis (§8): blocked nowhere -> open; blocked at
    *every* vantage purely by server-side filtering -> geoblocking (the
    provider, not the path); anything vantage-dependent -> censorship."""
    blocked = [v for v in per_as if v.status == "blocked"]
    if not blocked:
        return "open"
    server_side = BlockType.SERVER_FILTERING.value
    if len(blocked) == len(per_as) and all(
        server_side in v.stages for v in blocked
    ):
        return "geoblocking"
    return "censorship"
