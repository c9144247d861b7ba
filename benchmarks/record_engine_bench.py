"""Record kernel/policy throughput numbers to BENCH_engine.json.

Times the same workloads as ``bench_engine_performance.py`` with a plain
``perf_counter`` harness (no pytest-benchmark dependency) so CI can track
the perf trajectory across PRs.  Usage::

    PYTHONPATH=src python benchmarks/record_engine_bench.py [--label after]

The script merges into the repo-root ``BENCH_engine.json``: each label
("seed-baseline", "after", ...) maps to the best-of-N wall-clock seconds
per workload, so before/after history accumulates rather than being
overwritten.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time

from repro.censor.actions import DnsAction
from repro.simnet.engine import Environment

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_engine.json"


def run_timer_storm(n_processes=200, ticks=50):
    env = Environment()

    def ticker(delay):
        for _ in range(ticks):
            yield env.timeout(delay)

    for index in range(n_processes):
        env.process(ticker(0.1 + index * 0.001))
    env.run()
    return env.now


def run_spawn_join_storm(width=40, depth=3):
    env = Environment()

    def node(level):
        if level == 0:
            yield env.timeout(0.01)
            return 1
        children = [env.process(node(level - 1)) for _ in range(3)]
        gathered = yield env.all_of(children)
        return sum(gathered.values())

    roots = [env.process(node(depth)) for _ in range(width)]
    env.run()
    return sum(root.value for root in roots)


def run_policy_lookups():
    from repro.censor.policy import CensorPolicy, Matcher, Rule
    from repro.censor.actions import DnsVerdict

    policy = CensorPolicy(name="big")
    domains = {f"blocked{i}.example.com" for i in range(500)}
    policy.add_rule(
        Rule(matcher=Matcher(domains=domains), dns=DnsVerdict(DnsAction.NXDOMAIN))
    )
    hits = 0
    for i in range(2000):
        if policy.on_dns_query(f"www.blocked{i % 600}.example.com").action \
                is DnsAction.NXDOMAIN:
            hits += 1
    assert hits == 3 * 500 + 200
    return hits


def _build_multirule_policy(n_rules=200):
    from repro.censor.policy import CensorPolicy, Matcher, Rule
    from repro.censor.actions import DnsVerdict, HttpVerdict, HttpAction

    policy = CensorPolicy(name="multirule")
    for i in range(n_rules):
        policy.add_rule(
            Rule(
                matcher=Matcher(
                    domains={f"site{i}.example.com"},
                    keywords={f"badword{i}"},
                ),
                dns=DnsVerdict(DnsAction.NXDOMAIN),
                http=HttpVerdict(HttpAction.DROP),
                label=f"rule{i}",
            )
        )
    return policy


def _multirule_queries(policy, hook_dns, hook_http):
    """2000 DNS + 2000 HTTP lookups; most miss, the tail hits late rules."""
    hits = 0
    for i in range(2000):
        qname = f"www.site{i % 250}.example.com"
        if hook_dns(qname).action is DnsAction.NXDOMAIN:
            hits += 1
        host, path = f"cdn{i}.example.net", f"/page/{i % 97}"
        if i % 10 == 0:
            path = f"/stream/badword{i % 250}/x"
        from repro.censor.actions import HttpAction
        if hook_http(host, path).action is HttpAction.DROP:
            hits += 1
    return hits


def run_policy_multirule_compiled(_policy=_build_multirule_policy()):
    compiled = _policy.compiled()
    hits = _multirule_queries(
        _policy, compiled.on_dns_query, compiled.on_http_request
    )
    assert hits == 1600 + 200
    return hits


def check_policy_multirule_linear_smoke(_policy=_build_multirule_policy()):
    """Untimed correctness gate: the linear reference path must agree with
    :class:`CompiledPolicy` verdict-for-verdict on a smoke-sized query set.

    The full linear sweep (~1.6 s/run, x5 rounds) used to dominate this
    script's runtime while measuring a path nothing ships on; the linear
    matcher is the executable spec, so what CI needs is agreement, not a
    throughput number.
    """
    compiled = _policy.compiled()
    for i in range(120):
        qname = f"www.site{i % 250}.example.com"
        assert (
            _policy.linear_on_dns_query(qname).action
            is compiled.on_dns_query(qname).action
        ), qname
        host, path = f"cdn{i}.example.net", f"/page/{i % 97}"
        if i % 10 == 0:
            path = f"/stream/badword{i % 250}/x"
        assert (
            _policy.linear_on_http_request(host, path).action
            is compiled.on_http_request(host, path).action
        ), (host, path)


_PULL_STORM_CACHE = {}


def _build_pull_storm_server(n_entries=100_000, n_ases=50, urls_per_client=50):
    """A ServerDB holding ``n_entries`` blocked rows spread over ``n_ases``.

    2 000 registered clients each vouch for 50 URLs on their own AS, the
    shape a large deployment converges to.  Built once and cached: the
    benchmark times the pull path, not table construction.
    """
    from repro.core.globaldb import ReportItem, ServerDB
    from repro.core.records import BlockType

    args = (n_entries, n_ases, urls_per_client)
    server = _PULL_STORM_CACHE.get(args)
    if server is not None:
        return server
    server = ServerDB(entry_ttl=None)
    n_clients = n_entries // urls_per_client
    for index in range(n_clients):
        uuid = server.register(now=float(index))
        asn = 30000 + index % n_ases
        items = [
            ReportItem(
                url=f"http://as{asn}.site{index}-{k}.example.com/",
                asn=asn,
                stages=(BlockType.BLOCK_PAGE,),
                measured_at=1.0,
            )
            for k in range(urls_per_client)
        ]
        server.post_update(uuid, items, now=2.0)
    _PULL_STORM_CACHE[args] = server
    return server


def run_globaldb_pull_storm(n_pulls=100, n_ases=50):
    """100 client pulls against a 100k-entry global_DB (the §5 sync path)."""
    server = _build_pull_storm_server(n_ases=n_ases)
    total = 0
    for index in range(n_pulls):
        asn = 30000 + index % n_ases
        total += len(server.blocked_for_as(asn, now=10.0, min_reporters=1))
    assert total == n_pulls * (100_000 // n_ases)
    return total


def run_voting_update_storm(n_clients=10_000, n_keys=500, reports_each=10):
    """10k clients upload vouch sets, each upload followed by a confidence
    check, then five full stats sweeps (the server-side voting hot path)."""
    from repro.core.voting import VotingLedger

    ledger = VotingLedger()
    keys = [
        (f"http://u{index}.example.com/", 30000 + index % 16)
        for index in range(n_keys)
    ]
    checked = 0.0
    for index in range(n_clients):
        mine = [
            keys[(index * 13 + j * 7) % n_keys] for j in range(reports_each)
        ]
        ledger.add_client_reports(f"client-{index}", mine)
        checked += ledger.stats(*keys[index % n_keys]).votes
    for _ in range(5):
        for key in keys:
            checked += ledger.stats(*key).votes
    return checked


def run_session_request_storm(rounds=40, trace_mode=None):
    """The end-to-end request path: measurement flows, detection stages,
    circumvention, and (post-refactor) session trace emission.  The
    ``before-session``/``after-session`` label pair records what full
    per-request tracing costs on this pure-python path (recorded
    interleaved — this box drifts by tens of percent across minutes, so
    back-to-back label recordings are not comparable).  With
    ``trace_mode="off"`` the same storm runs on the single-predicate
    disabled-trace path (the ``session_request_storm_notrace``
    workload)."""
    from repro.core import CSawClient
    from repro.core.config import CSawConfig
    from repro.workloads.scenarios import pakistan_case_study

    config_kwargs = {"probe_probability": 0.0}
    if trace_mode is not None:
        config_kwargs["trace_mode"] = trace_mode
    scenario = pakistan_case_study(seed=5, with_proxy_fleet=False)
    world = scenario.world
    client = CSawClient(
        world,
        "bench",
        [scenario.isp_a],
        transports=scenario.make_transports("bench"),
        config=CSawConfig(**config_kwargs),
    )
    urls = [
        scenario.urls["small-unblocked"],
        scenario.urls["youtube"],
        scenario.urls["table5/tcp-ip"],
    ]
    served = 0

    def storm():
        count = 0
        for index in range(rounds):
            for url in urls:
                response = yield from client.request(url)
                yield response.measurement_process
                count += 1
        return count

    served = world.run_process(storm())
    assert served == rounds * len(urls)
    return served


def run_session_request_storm_notrace(rounds=40):
    """The same 120-request storm with ``TraceMode.OFF`` — what a
    deployment that never looks at traces pays for the session layer."""
    return run_session_request_storm(rounds=rounds, trace_mode="off")


def run_fleet_report_storm():
    """100k cohort clients (50 ASes x 2000) absorbing a blocking wave:
    reporter posts, staggered batched delta pulls, convergence tracking.
    The whole storm runs through ``ClientCohort`` record arrays."""
    from repro.core.fleet import run_fleet_storm

    metrics = run_fleet_storm(seed=0, n_ases=50, clients_per_as=2000)
    assert metrics.n_clients == 100_000
    assert not any(v < 0 for v in metrics.convergence_by_as.values())
    return metrics


def run_fleet_report_storm_1m():
    """One million cohort clients (100 ASes x 10 000) through the same
    wave + batched-delta-pull storm — the ICLab-scale workload the
    group-applied sweep (DESIGN.md §11) exists for.  Every client still
    pulls ~2.5 times and every AS must converge on the wave."""
    from repro.core.fleet import run_fleet_storm

    metrics = run_fleet_storm(seed=0, n_ases=100, clients_per_as=10_000)
    assert metrics.n_clients == 1_000_000
    assert metrics.reports_absorbed == 200_000
    assert not any(v < 0 for v in metrics.convergence_by_as.values())
    assert metrics.pulls_served >= 2 * metrics.n_clients
    return metrics


def run_plane_mix_storm():
    """The 100k storm with a three-plane mix (C-Saw + Encore + generated
    probe lists) instead of the single C-Saw plane.  Same fleet shape as
    ``fleet_report_storm`` and the same combined 1% reporter mass — the
    mix splits it 0.4/0.5/0.1 — so what's measured is the overhead of
    the plane *machinery*: per-plane RNG streams, per-reporter Encore
    item draws, per-plane convergence curves, and per-plane ledger tags
    on the server (report volume would otherwise dominate and the ratio
    would just measure reporter count).
    Guarded at <=1.5x the single-plane storm in ``bench_fleet_storm.py``."""
    from repro.core.fleet import run_fleet_storm

    metrics = run_fleet_storm(
        seed=0,
        n_ases=50,
        clients_per_as=2000,
        planes=[
            {"kind": "csaw", "fraction": 0.004},
            {"kind": "encore", "fraction": 0.005, "miss_rate": 0.2},
            {"kind": "problist", "fraction": 0.001, "coverage": 0.9},
        ],
    )
    assert metrics.n_clients == 100_000
    assert set(metrics.reports_by_plane) == {"csaw", "encore", "problist"}
    assert not any(v < 0 for v in metrics.convergence_by_as.values())
    return metrics


def run_fleet_pull_storm_batch(n_clients=2000, n_ases=10):
    """Cohort-scale pull storm, columnar path: 2000 clients across 10
    ASes (200 per AS — the regime the fleet layer targets).  One
    ``SyncBatch`` is built per AS and shared by every client on it, one
    shared view is materialized per AS in a single columnar pass
    (mean-field: every client of an AS sees identical server state), and
    per-client bookkeeping is a record-array version write.  The per-AS
    amortization is the ``>=3x`` lever over the row path below."""
    from array import array

    from repro.core.reporting import GlobalView

    server = _build_pull_storm_server()
    per_as = 100_000 // 50
    versions = array("q", bytes(8 * n_clients))
    shared = {}
    total = 0
    for index in range(n_clients):
        asn = 30000 + index % n_ases
        cached = shared.get(asn)
        if cached is None:
            batch = server.sync_batch_for_as(asn, now=10.0)
            view = GlobalView()
            view.apply_batch(batch, now=10.0)
            cached = shared[asn] = (batch, view)
        batch, view = cached
        versions[index] = batch.version
        total += len(view)
    assert total == n_clients * per_as
    assert all(versions)
    return total


def run_fleet_pull_storm_rows(n_clients=2000, n_ases=10):
    """The same pull storm on the per-client row path: every client gets
    its own ``SyncResult`` built and folds it into its own view — the
    executable-spec shape ``ReportingService`` uses for a single client,
    paid once per cohort member.  Kept timed so the batch path's speedup
    stays visible."""
    from repro.core.reporting import GlobalView

    server = _build_pull_storm_server()
    per_as = 100_000 // 50
    total = 0
    for index in range(n_clients):
        asn = 30000 + index % n_ases
        result = server.sync_for_as(asn, now=10.0)
        view = GlobalView()
        view.apply_sync(result, now=10.0)
        total += len(view)
    assert total == n_clients * per_as
    return total


WORKLOADS = {
    "kernel_timer_storm": run_timer_storm,
    "kernel_spawn_join_storm": run_spawn_join_storm,
    "session_request_storm": run_session_request_storm,
    "session_request_storm_notrace": run_session_request_storm_notrace,
    "policy_dns_lookups": run_policy_lookups,
    "policy_multirule_compiled": run_policy_multirule_compiled,
    "globaldb_pull_storm": run_globaldb_pull_storm,
    "fleet_report_storm": run_fleet_report_storm,
    "fleet_report_storm_1m": run_fleet_report_storm_1m,
    "plane_mix_storm": run_plane_mix_storm,
    "fleet_pull_storm_batch": run_fleet_pull_storm_batch,
    "fleet_pull_storm_rows": run_fleet_pull_storm_rows,
    "voting_update_storm": run_voting_update_storm,
}

#: Per-workload override of the best-of round count: the 1M storm runs
#: seconds per round, and best-of-2 bounds the recording job's runtime
#: without giving up a warm second sample.
ROUNDS_OVERRIDE = {"fleet_report_storm_1m": 2}


def best_of(fn, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="after",
                        help="key to record under (e.g. seed-baseline, after)")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--compare", action="append", default=None, metavar="LABEL",
        help="extra recorded label(s) to compute speedups against "
             "(default: seed-baseline)",
    )
    args = parser.parse_args()

    # Untimed gate: the linear policy path must still agree with the
    # compiled one (it left the timed set — see its docstring).
    check_policy_multirule_linear_smoke()

    timings = {
        name: best_of(fn, min(args.rounds, ROUNDS_OVERRIDE.get(name, args.rounds)))
        for name, fn in WORKLOADS.items()
    }

    history = {}
    if OUT.exists():
        history = json.loads(OUT.read_text())
    history[args.label] = {
        "seconds": timings,
        "python": platform.python_version(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    for base_label in args.compare or ["seed-baseline"]:
        baseline = history.get(base_label)
        if not baseline or base_label == args.label:
            continue
        key = (
            "speedup_vs_seed"
            if base_label == "seed-baseline"
            else "speedup_vs_" + base_label.replace("-", "_")
        )
        history[args.label][key] = {
            name: round(baseline["seconds"][name] / timings[name], 2)
            for name in timings
            if name in baseline["seconds"]
        }
    OUT.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
    for name, seconds in timings.items():
        print(f"{name}: {seconds * 1000:.2f} ms")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
