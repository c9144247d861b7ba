"""Every shipped scenario pack must run green through the
ScenarioRunner — and a deliberately-wrong expectation must fail with a
readable diff (the packs are executable claims, so both directions of
the check matter)."""

import pytest

from repro.scenarios import (
    ScenarioRunner,
    ScenarioSpec,
    load_spec,
    shipped_packs,
)
from repro.scenarios.spec import load_toml_file

PACKS = dict(shipped_packs())
EXPECTED_PACKS = {
    "hybrid-planes",
    "low-penetration-country",
    "rolling-wave",
    "sybil-flood",
    "vantage-disagreement",
}


def test_the_five_packs_ship():
    assert set(PACKS) == EXPECTED_PACKS


@pytest.mark.parametrize("name", sorted(PACKS))
def test_pack_runs_green(name):
    outcome = ScenarioRunner().run(load_spec(PACKS[name]))
    report = outcome.report
    assert report.checks, f"{name} declares no expectations"
    assert report.ok, f"{name} failed:\n{report.diff()}"
    rendered = report.render()
    assert "PASS" in rendered and name in rendered


def _sabotage(data):
    """Flip one expectation in a loaded pack dict so it must fail;
    returns a human label of what was broken."""
    expect = data["expect"]
    if expect.get("verdict"):
        verdict = expect["verdict"][0]
        verdict["status"] = (
            "not-blocked" if verdict["status"] == "blocked" else "blocked"
        )
        return f"verdict for {verdict['url']} @ AS{verdict['asn']}"
    if expect.get("detection"):
        detection = expect["detection"][0]
        detection["within"] = 1.0  # nobody detects within a second
        return f"detection deadline for {detection['domain']}"
    if expect.get("fleet"):
        expect["fleet"]["max_convergence"] = 0.001
        return "fleet convergence bound"
    if expect.get("reputation"):
        reputation = expect["reputation"]
        reputation["flagged_planes"] = list(
            reputation.get("flagged_planes", [])
        ) + list(reputation.get("clean_planes", []))
        reputation["clean_planes"] = []
        return "reputation flags (honest plane demanded flagged)"
    raise AssertionError("pack declares no expectations to sabotage")


@pytest.mark.parametrize("name", sorted(PACKS))
def test_wrong_expectation_fails_with_readable_diff(name):
    data = load_toml_file(PACKS[name])
    broken = _sabotage(data)
    spec = ScenarioSpec.from_dict(data)

    outcome = ScenarioRunner().run(spec)
    report = outcome.report
    assert not report.ok, f"sabotaged {broken} but {name} still passed"

    diff = report.diff()
    assert "expected:" in diff and "observed:" in diff
    # The diff must point at the failing check, not just say "failed".
    (first, *_rest) = report.failures
    assert first.subject in diff
    rendered = report.render()
    assert "FAIL" in rendered and "PASS" not in rendered.splitlines()[0]


def test_clean_plane_that_posted_nothing_fails():
    # A horizon before the wave: nobody posts, so a clean plane vouched
    # for nothing and must not pass "clean" or "URLs survive" unseen.
    data = load_toml_file(PACKS["sybil-flood"])
    data["cohort"]["horizon"] = 1.0
    report = ScenarioRunner().run(ScenarioSpec.from_dict(data)).report
    failed = {check.subject: check.observed for check in report.failures}
    assert failed["plane 'honest' clean"] == "0/0 flagged"
