"""The arms race: censor escalation vs data-driven re-adaptation (§8).

The paper's core bet is that measurement-driven circumvention adapts as
the censor evolves.  This bench plays a four-round escalation against one
C-Saw client:

  round 0  censor blocks HTTP (block page)      → C-Saw: HTTPS fix
  round 1  censor adds SNI filtering            → C-Saw: domain fronting
  round 2  censor blackholes the site's IP      → C-Saw: fronting still
           (fronting never touches that IP)       works
  round 3  censor blocks the front's IP too     → C-Saw: falls back to a
           (accepting the collateral damage)      relay (Tor/Lantern)

After every escalation the client must converge back to a *working*
method within a few accesses, and the PLT staircase should reflect the
rising price of each escalation.
"""

import pytest

from conftest import run_once
from repro.analysis import mean, render_table
from repro.censor.actions import (
    HttpAction,
    HttpVerdict,
    IpAction,
    IpVerdict,
    TlsAction,
    TlsVerdict,
)
from repro.censor.policy import Matcher, Rule
from repro.core import CSawClient, CSawConfig
from repro.scenarios.library import FRONT, YOUTUBE
from repro.workloads.scenarios import pakistan_case_study

ACCESSES_PER_ROUND = 8


def run_experiment():
    scenario = pakistan_case_study(seed=808, with_proxy_fleet=False)
    world = scenario.world
    url = scenario.urls["youtube"]
    policy = world.network.ases[scenario.isp_a.asn].censor.policy
    # Start from a clean slate for YouTube on ISP-A.
    policy.remove_rules("youtube")

    client = CSawClient(
        world, "arms-race", [scenario.isp_a],
        transports=scenario.make_transports("arms-race"),
        config=CSawConfig(record_ttl=10 * 24 * 3600.0, probe_probability=0.0),
    )

    youtube_ip = world.network.hosts_by_name[YOUTUBE].ip
    front_ip = world.network.hosts_by_name[FRONT].ip
    escalations = [
        (
            "HTTP block page",
            Rule(
                matcher=Matcher(domains={"youtube.com"}),
                http=HttpVerdict(
                    HttpAction.BLOCKPAGE_REDIRECT,
                    blockpage_ip=scenario.blockpage_a.ip,
                ),
                label="race-0",
            ),
        ),
        (
            "+ SNI filtering",
            Rule(
                matcher=Matcher(domains={"youtube.com"}),
                tls=TlsVerdict(TlsAction.DROP),
                label="race-1",
            ),
        ),
        (
            "+ IP blackhole",
            Rule(
                matcher=Matcher(ips={youtube_ip}),
                ip=IpVerdict(IpAction.DROP),
                label="race-2",
            ),
        ),
        (
            "+ front IP blocked",
            Rule(
                matcher=Matcher(ips={front_ip}, domains={FRONT}),
                ip=IpVerdict(IpAction.DROP),
                tls=TlsVerdict(TlsAction.DROP),
                label="race-3",
            ),
        ),
    ]

    rounds = []

    def play():
        for label, rule in escalations:
            policy.add_rule(rule)
            paths, plts, failures = [], [], 0
            for _ in range(ACCESSES_PER_ROUND):
                yield world.env.timeout(60.0)
                response = yield from client.request(url)
                yield response.measurement_process
                if response.ok:
                    paths.append(response.path)
                    plts.append(response.plt)
                else:
                    failures += 1
            rounds.append({
                "label": label,
                "converged_path": paths[-1] if paths else None,
                "mean_plt": mean(plts[-3:]) if len(plts) >= 3 else None,
                "failures": failures,
                "served": len(paths),
            })

    world.run_process(play())
    return rounds


def test_arms_race_readaptation(benchmark, report):
    rounds = run_once(benchmark, run_experiment)
    rows = [
        [r["label"], r["converged_path"] or "-",
         f"{r['mean_plt']:.2f}" if r["mean_plt"] else "-",
         f"{r['served']}/{ACCESSES_PER_ROUND}"]
        for r in rounds
    ]
    report(render_table(
        ["censor escalation", "C-Saw converges to", "steady PLT (s)",
         "served"],
        rows,
        title="Arms race — censor escalates, C-Saw re-adapts "
        f"({ACCESSES_PER_ROUND} accesses per round)",
    ))

    assert rounds[0]["converged_path"] == "https"
    assert rounds[1]["converged_path"] == "domain-fronting"
    assert rounds[2]["converged_path"] == "domain-fronting"
    assert rounds[3]["converged_path"] in ("tor", "lantern")
    # Content kept flowing: at least 6 of 8 accesses served every round.
    for r in rounds:
        assert r["served"] >= ACCESSES_PER_ROUND - 2, r
    # The price of escalation: relays cost more than local fixes.
    assert rounds[3]["mean_plt"] > rounds[0]["mean_plt"]
