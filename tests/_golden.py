"""The golden captures in ``tests/data/`` and the one kit that checks them.

Each golden pins what a refactor promised to leave bit-identical,
captured from the tree before it:

- ``session_refactor_golden`` (commit c0895d8, the last before the
  session layer): a fixed-seed request battery on the Pakistan case
  study, both ISPs and every Table-5 mechanism, plus a small pilot
  study.  Floats are rendered with ``float.hex()``.
- ``scenario_golden`` (commit a39839e, the imperative scenario
  builders): direct-path probes from every ISP to every URL, a C-Saw
  client converging onto a fix with its full ``stats()``, and the
  server rows it left, for the case study, the centralized country and
  the blocking wave.
- ``plane_golden`` (commit efd74f9, the pre-plane fleet pipeline): one
  small fleet storm down to every record array, server row, vote tally
  and serve counter, for the production sweep (``grouped``) and the
  per-client loop in ``tests/_reference_fleet.py`` (``spec``).
- ``construction_golden`` (commit 5675466, the last before the pilot and
  the ONI sweep built their worlds through the scenario compiler's
  pieces): every censoring AS's rules with their blocking verdicts,
  the block-page host's IP, each pilot client's transports, and the
  sweep's measured fractions.

The last three render floats as ``repr`` strings (:func:`freeze`).
:func:`check` fails naming the first differing path, e.g.
``scenario_golden: case_study.flow.stats.plt_breakdown.http: '10.5' !=
'10.0'``.  Regenerate a golden only when a change means to alter
results, and say so in CHANGES.md::

    PYTHONPATH=src python -m tests._golden NAME > tests/data/NAME.json
"""

from __future__ import annotations

import json
import os
import reprlib
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.censor.actions import PASS_DNS, PASS_HTTP, PASS_IP, PASS_TLS
from repro.core import CSawClient, CSawConfig, ServerDB
from repro.core.detection import measure_direct_path
from repro.core.fleet import ClientCohort
from repro.scenarios import ScenarioRunner, wave_spec
from repro.simnet.engine import Environment
from repro.workloads.oni import OniSweep
from repro.workloads.pilot import PilotConfig, PilotStudy
from repro.workloads.scenarios import pakistan_case_study
from tests._centralized import centralized_country
from tests._reference_fleet import ReferenceClientCohort


def freeze(value: Any) -> Any:
    """Floats -> repr strings, dicts -> key-sorted with string keys,
    tuples -> lists, recursively (an exact JSON round trip)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {
            str(k): freeze(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [freeze(v) for v in value]
    return value


def load(name: str) -> Any:
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.json")
    with open(path) as handle:
        return json.load(handle)


def check(name: str, captured: Any, at: str = "") -> None:
    """Fail unless ``captured`` equals golden ``name`` (its subtree at
    the dotted key path ``at``, when given), naming the first path where
    they differ: a changed value, a missing or extra key, or a list of
    another length."""
    golden = load(name)
    for key in at.split(".") if at else ():
        golden = golden[key]
    found = _first_difference(captured, golden, at)
    if found is not None:
        path, detail = found
        raise AssertionError(f"{name}: {path or '(root)'}: {detail}")


def _first_difference(got: Any, want: Any, path: str) -> Optional[Tuple[str, str]]:
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want), key=str):
            where = f"{path}.{key}" if path else str(key)
            if key not in got:
                return where, f"missing (golden {reprlib.repr(want[key])})"
            if key not in want:
                return where, f"not in golden (got {reprlib.repr(got[key])})"
            found = _first_difference(got[key], want[key], where)
            if found is not None:
                return found
    elif isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return path, f"length {len(got)} != {len(want)}"
        for index, (item, wanted) in enumerate(zip(got, want)):
            found = _first_difference(item, wanted, f"{path}[{index}]")
            if found is not None:
                return found
    elif got != want:
        return path, f"{got!r} != {want!r}"
    return None


def _serve(client, url):
    """One request, joined with its bookkeeping."""
    response = yield from client.request(url)
    yield response.measurement_process
    return response


# -- session_refactor_golden --------------------------------------------------

#: PilotReport fields of the pre-refactor vintage: fields added since
#: must not invalidate the golden.
PILOT_FIELDS = (
    "users", "unique_blocked_urls", "unique_blocked_domains", "unique_ases",
    "distinct_block_types", "urls_dns_blocked", "urls_tcp_timeout",
    "urls_blockpage", "unique_updates", "cdn_domains_detected",
    "full_syncs", "delta_syncs", "sync_rows_received",
)

_URL_KEYS = (
    "small-unblocked", "youtube", "table5/dns-servfail",
    "table5/dns-refused", "table5/tcp-ip", "table5/tcp-ip+dns",
)


def capture_session() -> Dict[str, Any]:
    scenario = pakistan_case_study(seed=13, with_proxy_fleet=False)
    world = scenario.world

    def make(name, isp, config=None):
        return CSawClient(
            world, name, [isp], transports=scenario.make_transports(name),
            config=config,
        )

    client_a = make("golden-a", scenario.isp_a)
    client_b = make("golden-b", scenario.isp_b)
    probing = make(
        "golden-probe", scenario.isp_a, config=CSawConfig(probe_probability=1.0)
    )
    plan = [(client_a, scenario.urls[key]) for key in _URL_KEYS]
    plan += [
        # Blocked-flow repeat: the second access rides the local fix.
        (client_a, scenario.urls["youtube"]),
        (client_a, "http://no-such-site.example/"),
        # ISP-B: DNS redirect + HTTP drop multi-stage, then SNI filtering.
        (client_b, scenario.urls["youtube"]),
        (client_b, "https://www.youtube.com/"),
        (client_b, scenario.urls["youtube"]),
        # Probabilistic direct probe on the blocked flow (p = 1).
        (probing, scenario.urls["table5/tcp-ip"]),
        (probing, scenario.urls["table5/tcp-ip"]),
    ]
    requests = []
    for client, url in plan:
        response = world.run_process(_serve(client, url))
        detection = response.detection
        requests.append({
            "client": client.name,
            "url": url,
            "status": response.status.value,
            "stages": [stage.value for stage in response.stages],
            "path": response.path,
            "ok": response.ok,
            "corrected": response.corrected,
            "probe_ran": response.probe_ran,
            "plt": float(response.plt).hex(),
            "effective_plt": float(response.effective_plt).hex(),
            "detection_time": (
                None if detection is None
                else float(detection.detection_time).hex()
            ),
        })

    study = PilotStudy(PilotConfig(
        seed=11, n_users=6, n_sites=120, requests_per_user=10,
        duration_days=8.0, n_ases=4,
    ))
    report = study.run()
    return {
        "requests": requests,
        "scenario_clock": float(world.env.now).hex(),
        "pilot": {name: getattr(report, name) for name in PILOT_FIELDS},
        "pilot_clock": float(study.world.env.now).hex(),
    }


# -- scenario_golden ----------------------------------------------------------


def _probe(world, isp, stream: str, url: str) -> List[Any]:
    client, access = world.add_client(f"fp-{stream.replace('/', '-')}", [isp])
    ctx = world.new_ctx(client, access, stream=f"fp/{stream}")
    outcome = world.run_process(measure_direct_path(world, ctx, url))
    return [
        outcome.status.value,
        [s.value for s in outcome.stages],
        repr(outcome.detection_time),
        repr(outcome.elapsed),
        outcome.suspected_blockpage,
    ]


def _probes(world, isps, urls) -> List[Any]:
    """``_probe`` from each ``(label, isp)`` to every URL, keys sorted."""
    return [
        [label, key] + _probe(world, isp, f"{label}/{key}", urls[key])
        for label, isp in isps
        for key in sorted(urls)
    ]


def case_study_fingerprint(seed: int = 3) -> Dict[str, Any]:
    """Probes + one converging C-Saw client on the Pakistan world."""
    scenario = pakistan_case_study(seed=seed, with_proxy_fleet=True)
    world = scenario.world
    probes = _probes(
        world,
        [("A", scenario.isp_a), ("B", scenario.isp_b),
         ("clean", scenario.isp_clean)],
        scenario.urls,
    )
    server = ServerDB(entry_ttl=None)
    client = CSawClient(
        world, "fp-user", [scenario.isp_b],
        transports=scenario.make_transports(
            "fp-user", include=["public-dns", "https", "domain-fronting"]
        ),
        server_db=server,
    )
    paths: List[Any] = []

    def flow():
        yield from client.install()
        for _ in range(3):
            response = yield from _serve(client, scenario.urls["youtube"])
            paths.append([response.path, repr(response.plt), response.status.value])

    world.run_process(flow())
    rows = sorted(
        [e.url, e.asn, [s.value for s in e.stages], repr(e.measured_at),
         repr(e.first_measured_at)]
        for e in server.all_entries()
    )
    return {
        "probes": probes,
        "flow": {"paths": paths, "stats": freeze(client.stats())},
        "server": rows,
    }


def centralized_fingerprint(seed: int = 9, n_isps: int = 3) -> Dict[str, Any]:
    scenario = centralized_country(seed=seed, n_isps=n_isps)
    world = scenario.world
    probes = _probes(
        world, [(isp.asn, isp) for isp in scenario.isps], scenario.urls
    )
    paths = []
    for isp in scenario.isps:
        name = f"fp-user-{isp.asn}"
        client = CSawClient(
            world, name, [isp], transports=scenario.make_transports(name)
        )

        def flow(c=client):
            for _ in range(3):
                response = yield from _serve(c, scenario.urls["youtube"])
            return response

        served = world.run_process(flow())
        paths.append([isp.asn, served.path, repr(served.plt)])
    return {"probes": probes, "paths": paths}


def wave_fingerprint(seed: int = 6, users_per_as: int = 3) -> Dict[str, Any]:
    outcome = ScenarioRunner(workers=1).run(
        wave_spec(seed=seed, users_per_as=users_per_as)
    )
    service = {url: label.capitalize() for label, url in outcome.spec.urls.items()}
    return {
        "observations": [
            [repr(o.detected_at), o.asn, service[o.url], o.symptom]
            for o in outcome.observations
        ],
        "stats": [freeze(c.stats()) for c in outcome.compiled.clients],
        "entries": outcome.compiled.server.entry_count,
    }


def capture_scenarios() -> Dict[str, Any]:
    return {
        "case_study": case_study_fingerprint(),
        "centralized": centralized_fingerprint(),
        "wave": wave_fingerprint(),
    }


# -- plane_golden -------------------------------------------------------------


#: A storm whose sweeps fall between laps (tick 600/6.5 s), so served run
#: slices wrap past rank ``n - 1``; three planes, and a 900 s entry TTL
#: whose evictions keep rows flowing after the wave, for four intervals.
WRAPPING_STORM: Dict[str, Any] = dict(
    planes=(
        {"kind": "csaw", "fraction": 0.05},
        {"kind": "encore", "fraction": 0.1},
        {"kind": "problist", "fraction": 0.05, "coverage": 0.9},
    ),
    tick=600.0 / 6.5,
    entry_ttl=900.0,
    intervals=4.0,
)


def golden_storm(cohort_type, seed: int = 7,
                 planes=({"kind": "csaw", "fraction": 0.05},),
                 tick: Optional[float] = None,
                 entry_ttl: Optional[float] = None, intervals: float = 2.0):
    """The plane golden's fleet storm on ``cohort_type``: a wave at 300 s,
    then ``intervals`` pull intervals.  Returns ``(cohort, server,
    metrics)``."""
    server = ServerDB(entry_ttl=entry_ttl)
    env = Environment()
    cohort = cohort_type(
        server, asns=[41000 + i for i in range(4)], clients_per_as=60,
        seed=seed, pull_interval=600.0, tick=tick, planes=planes,
    )

    def driver():
        yield env.timeout(300.0)
        cohort.start_wave(env.now, urls_per_as=5)

    env.process(driver())
    env.process(cohort.run(env, 300.0 + intervals * 600.0 + cohort.tick))
    env.run()
    return cohort, server, cohort.finalize()


def shard_fingerprint(st) -> Dict[str, Any]:
    """One shard's per-client views and its plane groups' reporter
    arrays, concatenated in mix order; the AS's target is its latest
    plane's, reached when its last plane converged."""
    groups = st.groups
    targets = [group.target_version for group in groups]
    times = [group.converged_at for group in groups]
    return {
        "asn": st.asn,
        "versions": list(st.versions),
        "next_pull_at": [repr(x) for x in st.next_pull_at],
        "bytes_received": list(st.bytes_received),
        "rows_received": list(st.rows_received),
        "reporter_ix": sorted(ix for group in groups for ix in group.reporter_ix),
        "reporter_uuids": sorted(uuid for group in groups for uuid in group.uuids),
        "report_at": [repr(x) for group in groups for x in group.report_at],
        "pending": [count for group in groups for count in group.pending],
        "target_version": None if None in targets else max(targets, default=None),
        "converged_at": repr(None if None in times else max(times, default=None)),
    }


def storm_fingerprint(cohort, server, metrics) -> Dict[str, Any]:
    """One :func:`golden_storm` run, captured down to every record array."""
    shards = [shard_fingerprint(st) for st in cohort.shards]
    entries = server.all_entries()
    stats = [server.voting.stats(e.url, e.asn) for e in entries]
    return {
        "summary": freeze(metrics.summary()),
        "convergence_by_as": freeze(metrics.convergence_by_as),
        "pending_by_as": freeze(metrics.pending_by_as),
        "shards": shards,
        "server_rows": sorted(
            [e.url, e.asn, [s.value for s in e.stages], repr(e.measured_at),
             repr(e.posted_at), repr(e.first_measured_at), e.last_uuid]
            for e in entries
        ),
        "vote_stats": sorted(
            [e.url, e.asn, repr(s.votes), s.reporters]
            for e, s in zip(entries, stats)
        ),
        "serve_counters": [
            server.full_syncs_served,
            server.delta_syncs_served,
            server.update_count,
            server.client_count,
        ],
    }


def capture_planes() -> Dict[str, Any]:
    wrapping = golden_storm(ClientCohort, **WRAPPING_STORM)
    metrics = wrapping[2]
    return {
        "grouped": storm_fingerprint(*golden_storm(ClientCohort)),
        "spec": storm_fingerprint(*golden_storm(ReferenceClientCohort)),
        "wrapping": {
            **storm_fingerprint(*wrapping),
            "convergence_by_plane": freeze(metrics.convergence_by_plane),
            "curve_by_plane": freeze(metrics.curve_by_plane),
        },
    }


# -- construction_golden ------------------------------------------------------

_PASS_VERDICTS = (
    ("dns", PASS_DNS), ("ip", PASS_IP), ("http", PASS_HTTP), ("tls", PASS_TLS),
)


def _censor_rules(world) -> Dict[str, Any]:
    """Each censoring AS's rules in order: label, sorted matcher domains
    and IPs, and the ``repr`` of every stage verdict other than that
    stage's pass verdict.  A stage left out passes, so a rule that gains
    or loses a stage shows as an extra or missing key."""
    return {
        str(asn): [
            [
                rule.label,
                sorted(rule.matcher.domains),
                sorted(rule.matcher.ips),
                {
                    stage: repr(getattr(rule, stage))
                    for stage, passing in _PASS_VERDICTS
                    if getattr(rule, stage) != passing
                },
            ]
            for rule in system.censor.policy.rules
        ]
        for asn, system in sorted(world.network.ases.items())
        if system.censor is not None
    }


def pilot_construction() -> Dict[str, Any]:
    study = PilotStudy(PilotConfig(
        seed=3, n_users=20, n_ases=4, n_sites=300, duration_days=10,
    )).build()
    world = study.world
    return {
        "rules": _censor_rules(world),
        "blockpage_ip": world.network.hosts_by_name["block.pk-filter.example"].ip,
        "transports": [
            [client.name] + [
                f"{name} {type(transport).__name__}"
                for name, transport in client.circumvention.transports.items()
            ]
            for client in study.clients
        ],
    }


def oni_construction() -> Dict[str, Any]:
    sweep = OniSweep(seed=17, domains_per_as=6).build()
    world = sweep.world
    return {
        "rules": _censor_rules(world),
        "blockpage_ip": world.network.hosts_by_name["block.oni.example"].ip,
        "fractions": freeze(sweep.run()),
    }


def capture_construction() -> Dict[str, Any]:
    return {"pilot": pilot_construction(), "oni": oni_construction()}


CAPTURES = {
    "session_refactor_golden": capture_session,
    "scenario_golden": capture_scenarios,
    "plane_golden": capture_planes,
    "construction_golden": capture_construction,
}


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CAPTURES:
        sys.exit(f"usage: python -m tests._golden {{{','.join(CAPTURES)}}}")
    captured = CAPTURES[sys.argv[1]]()
    sys.stdout.write(json.dumps(captured, indent=1, sort_keys=True) + "\n")
