"""Ablations — what each C-Saw design choice buys.

1. Selective redundancy (§4.3.1): duplicating *every* request (instead of
   only not-measured ones) inflates PLTs and data usage on an unblocked
   browsing workload.
2. Exploration (§4.3.2, n = 5): without the every-n-th random pick, a
   relay that *improves* after a bad start is never rediscovered.
3. Multihoming pinning (§4.4): without it, a URL blocked by only one of
   two providers oscillates between direct (sometimes broken) and relay.
4. Voting (§5): a Sybil clique floods the global DB through the fleet's
   write path; the confidence filter (vote mass or reporter count)
   keeps honest clients' views clean, at no cost to true entries.
"""

import pytest

from conftest import run_once
from repro.analysis import mean, render_table
from repro.censor.actions import HttpAction, HttpVerdict
from repro.censor.policy import Matcher, Rule
from repro.core import CSawClient, CSawConfig, ServerDB
from repro.core.fleet import run_fleet_storm
from repro.runner import TrialSpec, merge_values, run_trials
from repro.workloads.scenarios import pakistan_case_study


# --- 1. selective redundancy -------------------------------------------------

def run_selective_redundancy():
    scenario = pakistan_case_study(seed=601, with_proxy_fleet=False)
    world = scenario.world
    url = scenario.urls["small-unblocked"]

    def browse(client, forget):
        plts = []

        def one():
            if forget:
                client.local_db.clear()  # ablation: nothing is remembered
            response = yield from client.request(url)
            plts.append(response.plt)
            yield response.measurement_process

        for _ in range(40):
            world.run_process(one())
        return plts[1:]

    selective = CSawClient(
        world, "ab1-selective", [scenario.isp_a],
        transports=scenario.make_transports("ab1-selective", include=["tor"]),
    )
    always = CSawClient(
        world, "ab1-always", [scenario.isp_a],
        transports=scenario.make_transports("ab1-always", include=["tor"]),
    )
    return {
        "selective (C-Saw)": browse(selective, forget=False),
        "always-redundant": browse(always, forget=True),
    }


def test_ablation_selective_redundancy(benchmark, report):
    series = run_once(benchmark, run_selective_redundancy)
    rows = [
        [label, f"{mean(v):.2f}"] for label, v in series.items()
    ]
    report(render_table(
        ["mode", "mean PLT (s), unblocked page"],
        rows,
        title="Ablation 1 — selective redundancy: duplicate only "
        "not-measured URLs",
    ))
    assert mean(series["selective (C-Saw)"]) < mean(series["always-redundant"])


# --- 2. exploration ---------------------------------------------------------

def _exploration_arm(explore_n):
    """One independent arm: fresh scenario, one exploration setting."""
    scenario = pakistan_case_study(seed=602, with_proxy_fleet=False)
    world = scenario.world
    url = scenario.urls["youtube"]
    client = CSawClient(
        world, f"ab2-{explore_n}", [scenario.isp_b],
        transports=scenario.make_transports(
            f"ab2-{explore_n}", include=["tor", "lantern"]
        ),
        config=CSawConfig(explore_every_n=explore_n,
                          probe_probability=0.0),
    )
    # Phase 1: Lantern's trusted proxies are overloaded -> Tor looks
    # better and the EWMA locks onto it.
    lantern_hosts = [p for p in scenario.lantern.proxies]
    saved = [(h.extra_rtt, h.bandwidth_bps) for h in lantern_hosts]
    for host in lantern_hosts:
        host.extra_rtt = 3.0
        host.bandwidth_bps = 1e6

    def one(plts):
        response = yield from client.request(url)
        plts.append(response.plt)
        yield response.measurement_process

    warmup = []
    for _ in range(10):
        world.run_process(one(warmup))
    # Phase 2: the proxies recover; only exploration can notice.
    for host, (extra, bw) in zip(lantern_hosts, saved):
        host.extra_rtt = extra
        host.bandwidth_bps = bw
    after = []
    for _ in range(60):
        world.run_process(one(after))
    return after[20:]  # steady state after recovery


def run_exploration():
    # The two arms share nothing, so fan them out through the runner.
    specs = [
        TrialSpec(name=label, fn=_exploration_arm,
                  kwargs={"explore_n": explore_n})
        for explore_n, label in ((5, "with exploration (n=5)"),
                                 (10**6, "no exploration"))
    ]
    return merge_values(run_trials(specs))


def test_ablation_exploration(benchmark, report):
    series = run_once(benchmark, run_exploration)
    rows = [[label, f"{mean(v):.2f}"] for label, v in series.items()]
    report(render_table(
        ["mode", "mean PLT (s) after relay recovery"],
        rows,
        title="Ablation 2 — every-5th-access exploration rediscovers an "
        "improved relay",
    ))
    assert (
        mean(series["with exploration (n=5)"])
        < mean(series["no exploration"])
    )


# --- 3. multihoming pinning ---------------------------------------------------

def _multihoming_arm(pin):
    """One independent arm: fresh scenario, pinning on or off."""
    scenario = pakistan_case_study(seed=603, with_proxy_fleet=False)
    world = scenario.world
    url = "http://only-a.example.com/"
    world.web.add_site("only-a.example.com", location="us-east")
    world.web.add_page(url, size_bytes=120_000)
    policy = world.network.ases[scenario.isp_a.asn].censor.policy
    policy.add_rule(
        Rule(
            matcher=Matcher(domains={"only-a.example.com"}),
            http=HttpVerdict(
                HttpAction.BLOCKPAGE_REDIRECT,
                blockpage_ip=scenario.blockpage_a.ip,
            ),
        )
    )
    # Relay-only transports: a local fix would ride the direct path
    # through either provider and mask the oscillation entirely.
    client = CSawClient(
        world, f"ab3-{pin}", [scenario.isp_a, scenario.isp_b],
        transports=scenario.make_transports(
            f"ab3-{pin}", include=["tor", "lantern"]
        ),
        config=CSawConfig(probe_probability=1.0),
    )
    if not pin:
        client.measurement.multihoming = None  # ablation

    def warm():
        for _ in range(10):
            yield from client.multihoming.probe_once(client.new_ctx())

    world.run_process(warm())
    flips = []
    last_status = None

    def one(plts):
        nonlocal last_status
        response = yield from client.request(url)
        plts.append(response.plt)
        yield response.measurement_process
        status = client.local_db.lookup(url)[0]
        if last_status is not None and status is not last_status:
            flips.append(world.env.now)
        last_status = status

    plts = []
    for _ in range(40):
        world.run_process(one(plts))
    return (len(flips), mean(plts[5:]))


def run_multihoming():
    specs = [
        TrialSpec(name=label, fn=_multihoming_arm, kwargs={"pin": pin})
        for pin, label in ((True, "with pinning (C-Saw)"),
                           (False, "no pinning"))
    ]
    return merge_values(run_trials(specs))


def test_ablation_multihoming_pinning(benchmark, report):
    results = run_once(benchmark, run_multihoming)
    rows = [
        [label, flips, f"{plt:.2f}"]
        for label, (flips, plt) in results.items()
    ]
    report(render_table(
        ["mode", "status flips", "mean PLT (s)"],
        rows,
        title="Ablation 3 — multihoming strategy pinning stops "
        "blocked/unblocked oscillation",
    ))
    pinned_flips, _ = results["with pinning (C-Saw)"]
    unpinned_flips, _ = results["no pinning"]
    assert pinned_flips < unpinned_flips


# --- 4. voting vs naive trust under a Sybil flood ------------------------------

def run_voting_attack():
    # One AS of 100 clients whose 10 wave URLs are really blocked: 8
    # honest C-Saw reporters, and 2 Sybil identities (the CAPTCHA
    # rate-limits the attacker to a handful) vouching as a clique for
    # 200 fabricated URLs.  Both post through the fleet's write path.
    server = ServerDB(entry_ttl=None)
    asn = 1
    metrics = run_fleet_storm(
        n_ases=1, clients_per_as=100, urls_per_as=10, asn_base=asn,
        server=server,
        planes=[
            {"kind": "csaw", "fraction": 0.08},
            {"kind": "clique", "fraction": 0.02, "urls_each": 200},
        ],
    )
    ledger = server.voting
    poison = {
        url
        for uuid in ledger.clients()
        if ledger.plane_of(uuid) == "clique"
        for url, _ in ledger.reports_of(uuid)
    }
    now = metrics.last_report_at

    def split(entries):
        return (
            len([e for e in entries if e.url in poison]),
            len([e for e in entries if e.url not in poison]),
        )

    return {
        "naive": split(server.blocked_for_as(asn, now=now)),
        # Reporter count alone is defeated by two colluding identities...
        "min 3 reporters": split(
            server.blocked_for_as(asn, now=now, min_reporters=3)
        ),
        # ...while vote mass punishes them for spreading over 200 URLs
        # (each sybil contributes only 1/200 per entry).
        "min 0.05 votes": split(
            server.blocked_for_as(asn, now=now, min_votes=0.05)
        ),
    }


def test_ablation_voting_vs_sybil(benchmark, report):
    results = run_once(benchmark, run_voting_attack)
    rows = [
        [label, poisoned, genuine]
        for label, (poisoned, genuine) in results.items()
    ]
    report(render_table(
        ["download policy", "poisoned entries accepted", "genuine entries kept"],
        rows,
        title="Ablation 4 — voting/confidence filter under a Sybil flood "
        "(2 fake identities, 200 false URLs each)",
    ))
    assert results["naive"][0] == 200  # fully poisoned without the filter
    # Two colluding identities beat a bare reporter-count threshold only
    # if the threshold is below their clique size.
    assert results["min 3 reporters"][0] == 0
    # Vote mass works even against cliques: spreading over 200 URLs
    # dilutes each entry to s = 2/200 = 0.01.
    assert results["min 0.05 votes"][0] == 0
    assert results["min 0.05 votes"][1] == 10  # no collateral damage
