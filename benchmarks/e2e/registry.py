"""The end-to-end workload registry.

Each workload is one function ``fn(seed, clock) -> Outcome`` that builds
its inputs from ``seed`` alone and drives only public ``repro`` APIs, so
the same definition runs against this tree or an older ``src`` in an
interleaved A/B.  Construction runs under ``clock.setup()`` and the
simulation under ``clock.run()``; the sample runner (``sample.py``)
turns the two phase totals into ``setup_s`` and ``run_s``.

Inputs are fixed by name (pack names, plane kinds).  A workload whose
inputs do not exist in the ``src`` under test reports itself through
``missing()`` and is shown as n/a, never silently run on other inputs.
"""

from __future__ import annotations

import importlib.util
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Fleet storm shape shared by both storms; ``run_fleet_storm``'s
#: defaults, spelled out so the horizon below can be derived from them.
WAVE_AT = 300.0
PULL_INTERVAL = 600.0
ASN_BASE = 40000

#: report_flood's plane mix: three planes, each with its own detection
#: model, so per-plane voting histograms are active on every upload.
FLOOD_PLANES = (
    {"kind": "csaw", "fraction": 0.04},
    {"kind": "encore", "fraction": 0.05, "miss_rate": 0.2},
    {"kind": "problist", "fraction": 0.01, "coverage": 0.9},
)

TABLE5_MECHANISMS = (
    "tcp-ip", "dns-servfail", "dns-refused", "http-blockpage", "tcp-ip+dns",
)
TABLE5_RUNS = 50
FIG7_ACCESSES = 60
PAPER_PASSES = 10
PACKS = (
    "hybrid-planes",
    "low-penetration-country",
    "rolling-wave",
    "sybil-flood",
    "vantage-disagreement",
)


class PhaseClock:
    """Wall time split into set-up and run phases (summed over uses).

    A profiler, when given, records only inside the phases, so module
    imports at the top of a workload stay out of the layer profile.
    """

    def __init__(self, profiler=None) -> None:
        self.setup_s = 0.0
        self.run_s = 0.0
        self._profiler = profiler

    @contextmanager
    def _phase(self, attr: str):
        if self._profiler is not None:
            self._profiler.enable()
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if self._profiler is not None:
                self._profiler.disable()
            setattr(self, attr, getattr(self, attr) + elapsed)

    def setup(self):
        return self._phase("setup_s")

    def run(self):
        return self._phase("run_s")


@dataclass
class Outcome:
    """What one workload run produced.

    ``sim`` holds the end-to-end simulated metrics (they depend only on
    the seed), ``counts`` the per-layer counts read from workload
    outputs, ``material`` everything hashed into the sample's simulated
    fingerprint, and ``failures`` one message per failed check.
    """

    sim: Dict[str, float]
    counts: Dict[str, float]
    material: object
    failures: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str  # closed/open loop and its size, for the README and `run`
    execute: Callable[[int, PhaseClock], Outcome]
    sim_metrics: Tuple[str, ...]
    missing: Callable[[], Optional[str]] = lambda: None
    #: Optional untimed cross-check: the same inputs through the
    #: library's own entry point, returning comparable ``material``.
    reference: Optional[Callable[[int], object]] = None


def _derive(seed: int, name: str, index: int) -> int:
    from repro.runner import derive_seed

    return derive_seed(seed, name, index)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _session_counts(stats: Sequence[dict]) -> Dict[str, float]:
    """Session counts summed over ``CSawClient.stats()`` records."""
    used = sum(s["data_used_bytes"] for s in stats)
    return {
        "session.requests": sum(s["requests"] for s in stats),
        "session.probes": sum(s["probes"] for s in stats),
        "session.redundant_ratio": _ratio(
            sum(s["redundant_data_bytes"] for s in stats), used
        ),
    }


def _fleet_counts(fleets) -> Dict[str, float]:
    pulls = sum(m.pulls_served for m in fleets)
    batches = sum(m.batches_built for m in fleets)
    return {
        "voting.reports": sum(m.reports_absorbed for m in fleets),
        "globaldb.pulls": pulls,
        "globaldb.batches_built": batches,
        "globaldb.batch_reuse": _ratio(pulls, batches),
        "globaldb.sync_rows": sum(m.sync_rows for m in fleets),
        "planes.reporters": sum(m.n_reporters for m in fleets),
    }


# -- pilot: the Table 7 deployment -------------------------------------------


def _record(method, served: List[Tuple[float, bool]]):
    """Pass-through generator around a client's ``request``/``load_page``
    that records each top-level result's PLT and ``ok``."""

    def wrapper(*args, **kwargs):
        result = yield from method(*args, **kwargs)
        served.append((result.plt, result.ok))
        return result

    return wrapper


def _latency(accesses: Sequence[Tuple[float, bool]]) -> Dict[str, float]:
    """PLT percentiles over (plt, ok) pairs.  A failed access misses any
    latency limit, so it ranks last."""
    ranked = [plt if ok else math.inf for plt, ok in accesses]
    return {
        "plt_p50_sim_s": percentile(ranked, 0.50),
        "plt_p99_sim_s": percentile(ranked, 0.99),
    }


def run_pilot(seed: int, clock: PhaseClock) -> Outcome:
    from repro.workloads.pilot import PilotConfig, PilotStudy

    served: List[Tuple[float, bool]] = []
    with clock.setup():
        study = PilotStudy(PilotConfig(seed=_derive(seed, "pilot", 0))).build()
        for client in study.clients:
            client.request = _record(client.request, served)
            client.load_page = _record(client.load_page, served)
    with clock.run():
        report = study.run()

    server = study.server
    stats = [client.stats() for client in study.clients]
    counts = _session_counts(stats)
    syncs = server.full_syncs_served + server.delta_syncs_served
    counts.update({
        "voting.reports": sum(s["reports_posted"] for s in stats),
        "globaldb.pulls": syncs,
        "globaldb.delta_ratio": _ratio(server.delta_syncs_served, syncs),
        "globaldb.sync_rows": sum(s["sync_rows_received"] for s in stats),
    })
    sim = _latency(served)
    sim.update({
        "sync_bytes_per_client": _ratio(
            sum(s["sync_bytes_received"] for s in stats), len(stats)
        ),
        "blocked_urls_found": report.unique_blocked_urls,
        "fail_ratio": _ratio(sum(1 for _, ok in served if not ok), len(served)),
    })
    failures = []
    completed = sum(s["sessions_completed"] for s in stats)
    if completed != counts["session.requests"]:
        failures.append(
            f"pilot: {completed} sessions completed for "
            f"{counts['session.requests']} requests handled"
        )
    material = {
        "rows": report.rows(),
        "plt_stages": sorted(report.plt_stage_seconds.items()),
        "served": served,
        "counts": counts,
    }
    return Outcome(sim, counts, material, failures)


# -- fleet storms: storm_1m and report_flood ---------------------------------


def _storm_fingerprint(metrics) -> object:
    # summary() is the surface kept stable across the plane refactor,
    # so this material compares across refs that predate planes.
    return {
        "summary": metrics.summary(),
        "convergence": sorted(metrics.convergence_by_as.items()),
    }


def _storm(name: str, n_ases: int, clients_per_as: int, urls_per_as: int,
           planes: Optional[Sequence[dict]] = None):
    """A fleet storm driven step by step as ``run_fleet_storm`` does,
    with ServerDB and ClientCohort construction timed as set-up."""
    plane_kwargs = {} if planes is None else {"planes": [dict(p) for p in planes]}

    def execute(seed: int, clock: PhaseClock) -> Outcome:
        from repro.core.fleet import ClientCohort
        from repro.core.globaldb import ServerDB
        from repro.simnet.engine import Environment

        with clock.setup():
            server = ServerDB(entry_ttl=None)
            cohort = ClientCohort(
                server,
                asns=[ASN_BASE + i for i in range(n_ases)],
                clients_per_as=clients_per_as,
                seed=_derive(seed, name, 0),
                pull_interval=PULL_INTERVAL,
                **plane_kwargs,
            )
        with clock.run():
            env = Environment()

            def driver():
                yield env.timeout(WAVE_AT)
                cohort.start_wave(env.now, urls_per_as=urls_per_as)

            env.process(driver())
            horizon = WAVE_AT + 2.0 * PULL_INTERVAL + cohort.tick
            env.process(cohort.run(env, horizon))
            env.run()
            metrics = cohort.finalize()

        counts = _fleet_counts([metrics])
        syncs = server.full_syncs_served + server.delta_syncs_served
        counts["globaldb.delta_ratio"] = _ratio(server.delta_syncs_served, syncs)
        unconverged = sum(1 for t in metrics.convergence_by_as.values() if t < 0)
        pending = metrics.pending_at_horizon
        scheduled = metrics.reports_absorbed + pending
        sim = {
            "convergence_max_sim_s": metrics.max_convergence,
            "sync_bytes_per_client": metrics.bytes_per_client,
            "fail_ratio": _ratio(unconverged + pending, n_ases + scheduled),
        }
        failures = []
        if pending:
            failures.append(f"{name}: {pending} reports pending at the horizon")
        if unconverged:
            failures.append(f"{name}: {unconverged} ASes never converged")
        by_plane = getattr(metrics, "reports_by_plane", None)
        if by_plane is not None and sum(by_plane.values()) != metrics.reports_absorbed:
            failures.append(
                f"{name}: per-plane reports {by_plane} do not sum to "
                f"{metrics.reports_absorbed}"
            )
        return Outcome(sim, counts, _storm_fingerprint(metrics), failures)

    def reference(seed: int) -> object:
        from repro.core.fleet import run_fleet_storm

        return _storm_fingerprint(run_fleet_storm(
            seed=_derive(seed, name, 0),
            n_ases=n_ases,
            clients_per_as=clients_per_as,
            urls_per_as=urls_per_as,
            pull_interval=PULL_INTERVAL,
            wave_at=WAVE_AT,
            asn_base=ASN_BASE,
            **plane_kwargs,
        ))

    return execute, reference


def _planes_missing() -> Optional[str]:
    if importlib.util.find_spec("repro.planes") is None:
        return "no repro.planes package"
    return None


# -- paper_suite: Table 5, Fig. 7a/7c and the shipped packs ------------------


def _fig7_world(seed: int):
    """The Fig. 7 world: the case-study world plus a resolver-blocked
    page (7a) and a multi-stage DNS + IP blocked page (7c)."""
    from repro.censor.actions import (
        DnsAction, DnsVerdict, IpAction, IpVerdict,
    )
    from repro.censor.policy import Matcher, Rule
    from repro.workloads.scenarios import pakistan_case_study

    scenario = pakistan_case_study(seed=seed, with_proxy_fleet=False)
    world = scenario.world
    policy = world.network.ases[scenario.isp_a.asn].censor.policy
    world.web.add_site("f7-dnsblocked.example.com", location="us-east")
    world.web.add_page("http://f7-dnsblocked.example.com/", size_bytes=300_000)
    policy.add_rule(Rule(
        matcher=Matcher(domains={"f7-dnsblocked.example.com"}),
        dns=DnsVerdict(DnsAction.NXDOMAIN),
    ))
    world.web.add_site("f7-multistage.example.com", location="us-east")
    world.web.add_page("http://f7-multistage.example.com/", size_bytes=300_000)
    ms_ip = world.network.hosts_by_name["f7-multistage.example.com"].ip
    policy.add_rule(Rule(
        matcher=Matcher(domains={"f7-multistage.example.com"}, ips={ms_ip}),
        dns=DnsVerdict(DnsAction.REDIRECT, redirect_ip="10.70.70.70"),
        ip=IpVerdict(IpAction.DROP),
    ))
    return scenario


def _csaw_series(scenario, name, url, include, clients):
    from repro.core import CSawClient, CSawConfig

    world = scenario.world
    client = CSawClient(
        world, name, [scenario.isp_a],
        transports=scenario.make_transports(name, include=include),
        config=CSawConfig(probe_probability=0.1),
    )
    clients.append(client)
    results = []

    def one():
        response = yield from client.request(url)
        results.append((response.plt, response.ok))
        yield response.measurement_process

    for _ in range(FIG7_ACCESSES):
        world.run_process(one())
    return results


def _relay_series(scenario, name, url, relay):
    """Lantern (detect, then relay) or Tor alone, outside C-Saw."""
    from repro.circumvent import LanternSystem

    world = scenario.world
    client, access = world.add_client(name, [scenario.isp_a])
    if relay == "lantern":
        fetcher = LanternSystem(scenario.lantern_transport(name), proxy_all=False)
    else:
        fetcher = scenario.tor_transport(name, tor_rotation=120.0)
    results = []

    def one():
        ctx = world.new_ctx(client, access, stream=f"f7/{name}")
        result = yield from fetcher.fetch(world, ctx, url)
        results.append((result.elapsed, result.ok))

    for _ in range(FIG7_ACCESSES):
        world.run_process(one())
    return results


def run_paper_suite(seed: int, clock: PhaseClock) -> Outcome:
    from repro.core.detection import measure_direct_path
    from repro.scenarios import ScenarioRunner, load_spec, shipped_packs
    from repro.workloads.scenarios import pakistan_case_study

    pack_paths = dict(shipped_packs())
    detections: List[Tuple[str, float, bool]] = []
    csaw_accesses: List[Tuple[float, bool]] = []
    fetches: List[Tuple[str, float, bool]] = []
    packs: List[Tuple[str, bool, str]] = []
    clients: list = []
    fleets: list = []
    n_checks = failed_checks = 0
    failures: List[str] = []
    dns_url = "http://f7-dnsblocked.example.com/"
    ms_url = "http://f7-multistage.example.com/"

    for index in range(PAPER_PASSES):
        pass_seed = _derive(seed, "paper_suite", index)

        with clock.setup():
            scenario = pakistan_case_study(seed=pass_seed, with_proxy_fleet=False)
            world = scenario.world
            client, access = world.add_client("t5-client", [scenario.isp_a])
        with clock.run():
            for key in TABLE5_MECHANISMS:
                url = scenario.urls[f"table5/{key}"]
                for _ in range(TABLE5_RUNS):
                    ctx = world.new_ctx(client, access, stream=f"t5/{key}")
                    outcome = world.run_process(
                        measure_direct_path(world, ctx, url)
                    )
                    detections.append(
                        (key, outcome.detection_time, outcome.blocked)
                    )

        with clock.setup():
            scenario = _fig7_world(pass_seed)
        with clock.run():
            series = {
                "7a/csaw-tor": _csaw_series(
                    scenario, "f7a-csaw", dns_url,
                    ["public-dns", "https", "tor"], clients,
                ),
                "7a/lantern": _relay_series(scenario, "f7a-lantern", dns_url, "lantern"),
                "7a/tor": _relay_series(scenario, "f7a-tor", dns_url, "tor"),
            }
        with clock.setup():
            scenario = _fig7_world(pass_seed)
        with clock.run():
            series["7c/csaw-lantern"] = _csaw_series(
                scenario, "f7c-lantern", ms_url,
                ["public-dns", "https", "lantern"], clients,
            )
            series["7c/csaw-tor"] = _csaw_series(
                scenario, "f7c-tor", ms_url,
                ["public-dns", "https", "tor"], clients,
            )
        for label, results in series.items():
            fetches.extend((label, elapsed, ok) for elapsed, ok in results)
            if "csaw" in label:
                # The first access detects; the rest are steady state.
                csaw_accesses.extend(results[1:])

        for name in PACKS:
            with clock.setup():
                spec = load_spec(pack_paths[name]).with_seed(pass_seed)
            with clock.run():
                outcome = ScenarioRunner(workers=1).run(spec)
            report = outcome.report
            # A missed expectation is a simulated outcome, not a harness
            # failure: the shipped windows do not hold on every seed (the
            # rolling-wave pack detects late on some), so misses count in
            # fail_ratio and the fingerprint instead of failing the run.
            n_checks += len(report.checks)
            failed_checks += sum(1 for check in report.checks if not check.ok)
            if outcome.fleet is not None:
                fleets.append(outcome.fleet)
            packs.append((name, report.ok, report.render()))

    unblocked = [d for d in detections if not d[2]]
    if unblocked:
        failures.append(
            f"paper_suite: {len(unblocked)} Table 5 detections not blocked"
        )
    failed_fetches = sum(1 for _, _, ok in fetches if not ok)
    sim = _latency(csaw_accesses)
    sim["detect_mean_sim_s"] = sum(d[1] for d in detections) / len(detections)
    sim["fail_ratio"] = _ratio(
        len(unblocked) + failed_fetches + failed_checks,
        len(detections) + len(fetches) + n_checks,
    )
    counts = _session_counts([client.stats() for client in clients])
    counts.update(_fleet_counts(fleets))
    counts["scenarios.checks"] = n_checks
    material = {
        "detections": detections,
        "fetches": fetches,
        "packs": packs,
        "counts": counts,
    }
    return Outcome(sim, counts, material, failures)


def _packs_missing() -> Optional[str]:
    from repro.scenarios import shipped_packs

    names = {name for name, _ in shipped_packs()}
    absent = [name for name in PACKS if name not in names]
    return f"missing packs: {', '.join(absent)}" if absent else None


_storm_1m, _storm_1m_reference = _storm("storm_1m", 100, 10_000, 20)
_flood, _flood_reference = _storm(
    "report_flood", 50, 2_000, 50, planes=FLOOD_PLANES
)

#: Interleaving order of the workloads in `run` and `ab`.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pilot",
            why="the paper's Table 7 deployment: users browsing behind a "
                "censor load the whole request path (kernel, net, censor, "
                "session, circumvent)",
            loop="closed loop: 123 users in 16 ASes over 1,700 sites for "
                 "90 sim-days; each sends its next request after the last "
                 "is served plus exponential think time",
            execute=run_pilot,
            sim_metrics=(
                "plt_p50_sim_s", "plt_p99_sim_s", "sync_bytes_per_client",
                "blocked_urls_found", "fail_ratio",
            ),
        ),
        Workload(
            name="storm_1m",
            why="the global_DB serving 1M fleet clients at ICLab scale with "
                "1% reporters: pull sweeps and batch reads, no request path",
            loop="open loop in sim time: 100 ASes x 10,000 clients pull on "
                 "a fixed 600 s schedule; a 20-URL wave per AS at 300 s",
            execute=_storm_1m,
            sim_metrics=(
                "convergence_max_sim_s", "sync_bytes_per_client", "fail_ratio",
            ),
            reference=_storm_1m_reference,
        ),
        Workload(
            name="report_flood",
            why="globaldb and voting used for writes: three planes post "
                "~440k report items, so a change that trades write cost "
                "for pull speed shows here",
            loop="open loop in sim time: 50 ASes x 2,000 clients, 50-URL "
                 "wave per AS, csaw 4% + encore 5% + problist 1% reporters",
            execute=_flood,
            sim_metrics=(
                "convergence_max_sim_s", "sync_bytes_per_client", "fail_ratio",
            ),
            missing=_planes_missing,
            reference=_flood_reference,
        ),
        Workload(
            name="paper_suite",
            why="many small worlds: Table 5 detections, Fig. 7a/7c accesses "
                "and the five shipped packs, so set-up and scenario "
                "compilation take a large share",
            loop="closed loop: one client at a time, 10 passes of 250 "
                 "detections, 300 accesses and 5 packs, each on its own seed",
            execute=run_paper_suite,
            sim_metrics=(
                "plt_p50_sim_s", "plt_p99_sim_s", "detect_mean_sim_s",
                "fail_ratio",
            ),
            missing=_packs_missing,
        ),
    )
}
