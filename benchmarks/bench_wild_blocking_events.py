"""§7.5 — “C-Saw in the wild”: the Twitter/Instagram blocking wave.

Replays the November 2017 event timeline: two ASes block Twitter within
minutes of each other using *different* mechanisms, three ASes block
Instagram via DNS the next day.  The bench checks that C-Saw's
crowdsourced pipeline surfaces every event, with per-AS mechanism labels,
shortly after onset.
"""

import pytest

from conftest import run_once
from repro.analysis import render_table
from repro.scenarios import ScenarioRunner, wave_spec
from repro.urlkit import parse_url


def run_experiment():
    return ScenarioRunner(workers=1).run(wave_spec(seed=5, users_per_as=4))


def test_wild_blocking_wave(benchmark, report):
    outcome = run_once(benchmark, run_experiment)
    observations = outcome.observations
    service = {url: label.capitalize() for label, url in outcome.spec.urls.items()}
    rows = [
        [f"t+{o.detected_at / 3600:.1f}h", service[o.url], f"AS {o.asn}", o.symptom]
        for o in observations
    ]
    report(render_table(
        ["detected", "service", "AS", "response"],
        rows,
        title="§7.5 — blocking-wave measurements collected by C-Saw\n"
        "paper: Twitter blocked differently across ASes (timeout vs block "
        "page); Instagram DNS-blocked from three ASes the next morning",
    ))

    assert len(observations) == 5
    by_key = {(o.asn, service[o.url]): o for o in observations}
    assert by_key[(38193, "Twitter")].symptom == "HTTP_GET_TIMEOUT"
    assert by_key[(17557, "Twitter")].symptom == "HTTP_GET_BLOCKPAGE"
    instagram = [o for o in observations if service[o.url] == "Instagram"]
    assert len(instagram) == 3
    assert all(o.symptom == "DNS blocking" for o in instagram)
    # Detection promptness: every event surfaced within a few hours.
    onsets = {(e.asn, e.domain): e.time for e in outcome.spec.events}
    for o in observations:
        lag = o.detected_at - onsets[(o.asn, parse_url(o.url).host)]
        assert 0 <= lag < 6 * 3600.0
