"""Expectation checking: observed behavior diffed against the spec.

Every shipped pack states what the experiment *must* conclude — direct
path verdicts, cross-vantage classifications, crowd detection latency,
fleet convergence, reputation flags.  :func:`evaluate` compares those
declarations against a :class:`~repro.scenarios.runner.ScenarioOutcome`
and returns an :class:`ExpectationReport` whose :meth:`render`/
:meth:`diff` output is the readable artifact the CLI prints and CI
fails on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .spec import ScenarioSpec

__all__ = ["ExpectationCheck", "ExpectationReport", "evaluate"]


@dataclass(frozen=True)
class ExpectationCheck:
    """One expected-vs-observed comparison."""

    kind: str  # verdict | classification | detection | observations | fleet | reputation
    subject: str
    expected: str
    observed: str
    ok: bool


@dataclass
class ExpectationReport:
    """All checks for one scenario run, renderable as a diff."""

    scenario: str
    checks: List[ExpectationCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> List[ExpectationCheck]:
        return [check for check in self.checks if not check.ok]

    def render(self) -> str:
        passed = sum(1 for check in self.checks if check.ok)
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"scenario {self.scenario!r}: {verdict} "
            f"({passed}/{len(self.checks)} expectations hold)"
        ]
        for check in self.checks:
            mark = " ok " if check.ok else "FAIL"
            lines.append(f"  [{mark}] {check.kind:<14} {check.subject}")
            if not check.ok:
                lines.append(f"         expected: {check.expected}")
                lines.append(f"         observed: {check.observed}")
        return "\n".join(lines)

    def diff(self) -> str:
        """Only the mismatches — empty string when everything holds."""
        lines = []
        for check in self.failures:
            lines.append(f"{check.kind} {check.subject}")
            lines.append(f"  expected: {check.expected}")
            lines.append(f"  observed: {check.observed}")
        return "\n".join(lines)


def _domain_matches(url: str, domain: str) -> bool:
    from ..urlkit import parse_url

    host = parse_url(url).host
    return host == domain or host.endswith("." + domain)


def evaluate(spec: ScenarioSpec, outcome) -> ExpectationReport:
    """Diff an outcome against ``spec.expect``; see the pack files for
    the vocabulary in use."""
    report = ExpectationReport(scenario=spec.name)
    expect = spec.expect

    for want in expect.verdicts:
        observed = outcome.verdicts.get((want.asn, want.url))
        subject = f"{want.url} @ AS{want.asn}"
        if observed is None:
            report.checks.append(
                ExpectationCheck(
                    "verdict", subject, _verdict_str(want), "not probed", False
                )
            )
            continue
        ok = observed.status == want.status
        if want.stages:
            ok = ok and tuple(observed.stages) == tuple(want.stages)
        if want.suspected_blockpage is not None:
            ok = ok and observed.suspected_blockpage == want.suspected_blockpage
        report.checks.append(
            ExpectationCheck(
                "verdict",
                subject,
                _verdict_str(want),
                f"status={observed.status} stages={list(observed.stages)} "
                f"suspected_blockpage={observed.suspected_blockpage}",
                ok,
            )
        )

    for want in expect.classifications:
        observed = outcome.classifications.get(want.url, "not probed")
        report.checks.append(
            ExpectationCheck(
                "classification", want.url, want.verdict, observed,
                observed == want.verdict,
            )
        )

    for want in expect.detections:
        onset = min(
            (
                event.time
                for event in outcome.events
                if event.asn == want.asn and event.domain == want.domain
            ),
            default=0.0,
        )
        deadline: Optional[float] = onset + want.within if want.within > 0 else None
        hits = [
            obs
            for obs in outcome.observations
            if obs.asn == want.asn
            and _domain_matches(obs.url, want.domain)
            and obs.detected_at >= onset
            and (want.symptom == "" or obs.symptom == want.symptom)
        ]
        timely = [
            obs for obs in hits if deadline is None or obs.detected_at <= deadline
        ]
        expected = f"detected after onset t={onset:g}s"
        if deadline is not None:
            expected += f" and before t={deadline:g}s"
        if want.symptom:
            expected += f" with symptom {want.symptom!r}"
        if timely:
            first = min(obs.detected_at for obs in timely)
            observed_str = f"first matching observation at t={first:g}s"
        elif hits:
            first = min(obs.detected_at for obs in hits)
            observed_str = f"matching observation but late, at t={first:g}s"
        else:
            observed_str = "no matching observation in the global DB"
        report.checks.append(
            ExpectationCheck(
                "detection",
                f"{want.domain} @ AS{want.asn}",
                expected,
                observed_str,
                bool(timely),
            )
        )

    if expect.min_observations:
        count = len(outcome.observations)
        report.checks.append(
            ExpectationCheck(
                "observations",
                "global-DB entries",
                f">= {expect.min_observations}",
                str(count),
                count >= expect.min_observations,
            )
        )

    if expect.fleet is not None:
        metrics = outcome.fleet
        want_fleet = expect.fleet
        if metrics is None:
            report.checks.append(
                ExpectationCheck(
                    "fleet", "metrics", "fleet metrics", "no fleet run", False
                )
            )
        else:
            convergences = metrics.convergence_by_as
            unconverged = sorted(
                asn for asn, value in convergences.items() if value < 0
            )
            if want_fleet.all_converge:
                report.checks.append(
                    ExpectationCheck(
                        "fleet",
                        "every AS converges",
                        f"all {len(convergences)} ASes converge",
                        "all converged"
                        if not unconverged
                        else f"unconverged ASes: {unconverged}",
                        not unconverged,
                    )
                )
            if want_fleet.max_convergence > 0:
                converged = [v for v in convergences.values() if v >= 0]
                slowest = max(converged) if converged else float("inf")
                report.checks.append(
                    ExpectationCheck(
                        "fleet",
                        "convergence time",
                        f"slowest AS <= {want_fleet.max_convergence:g}s "
                        "after the wave",
                        f"slowest AS at {slowest:g}s",
                        slowest <= want_fleet.max_convergence,
                    )
                )
            if want_fleet.min_reports:
                report.checks.append(
                    ExpectationCheck(
                        "fleet",
                        "reports absorbed",
                        f">= {want_fleet.min_reports}",
                        str(metrics.reports_absorbed),
                        metrics.reports_absorbed >= want_fleet.min_reports,
                    )
                )

    for want_plane in expect.planes:
        metrics = outcome.fleet
        name = want_plane.name
        if metrics is None:
            report.checks.append(
                ExpectationCheck(
                    "plane", name, "fleet metrics", "no fleet run", False
                )
            )
            continue
        reports = metrics.reports_by_plane.get(name, 0)
        if want_plane.min_reports:
            report.checks.append(
                ExpectationCheck(
                    "plane",
                    f"{name} reports",
                    f">= {want_plane.min_reports}",
                    str(reports),
                    reports >= want_plane.min_reports,
                )
            )
        if want_plane.max_reports:
            report.checks.append(
                ExpectationCheck(
                    "plane",
                    f"{name} reports",
                    f"<= {want_plane.max_reports}",
                    str(reports),
                    reports <= want_plane.max_reports,
                )
            )
        if want_plane.all_converge:
            convergences = metrics.convergence_by_plane.get(name, {})
            unconverged = sorted(
                asn for asn, value in convergences.items() if value < 0
            )
            report.checks.append(
                ExpectationCheck(
                    "plane",
                    f"{name} converges everywhere",
                    f"all {len(convergences)} ASes converge on this plane",
                    "all converged"
                    if convergences and not unconverged
                    else (
                        f"unconverged ASes: {unconverged}"
                        if convergences
                        else "plane ran in no AS"
                    ),
                    bool(convergences) and not unconverged,
                )
            )

    if expect.reputation is not None:
        rep = outcome.reputation
        want_rep = expect.reputation
        if rep is None:
            report.checks.append(
                ExpectationCheck(
                    "reputation", "analysis", "reputation outcome",
                    "no reputation pass", False,
                )
            )
        else:
            _reputation_checks(report, want_rep, rep)

    return report


def _reputation_checks(report: ExpectationReport, want, rep) -> None:
    """Flagged planes wholly revoked, clean planes posted and untouched,
    and the URLs each side vouched for evicted or kept to match."""
    for plane in want.flagged_planes + want.clean_planes:
        flagged, total = rep.flag_counts.get(plane, (0, 0))
        if plane in want.flagged_planes:
            verdict, expected = "flagged", f"all {total} reporters flagged"
            ok = 0 < total == flagged
        else:
            verdict, expected = "clean", "reporters posted, none flagged"
            ok = total > 0 and not flagged
        report.checks.append(ExpectationCheck(
            "reputation", f"plane {plane!r} {verdict}", expected,
            f"{flagged}/{total} flagged", ok,
        ))
    # A URL an unflagged plane vouched for is real, whoever else did.
    real = {
        url
        for plane, removed in rep.removed_urls.items()
        if plane not in want.flagged_planes
        for url in removed + rep.surviving_urls[plane]
    }
    survivors = sorted({
        url
        for plane in want.flagged_planes
        for url in rep.surviving_urls.get(plane, ())
    } - real)
    lost = sorted({
        url for plane in want.clean_planes for url in rep.removed_urls.get(plane, ())
    })
    report.checks.append(ExpectationCheck(
        "reputation", "fabricated URLs evicted",
        "no URL vouched for only by flagged planes survives",
        f"{len(survivors)} survive: {survivors[:3]}", not survivors,
    ))
    report.checks.append(ExpectationCheck(
        "reputation", "clean planes' URLs survive",
        "no URL a clean plane vouched for is evicted",
        f"{len(lost)} evicted: {lost[:3]}", not lost,
    ))


def _verdict_str(want) -> str:
    parts = [f"status={want.status}"]
    if want.stages:
        parts.append(f"stages={list(want.stages)}")
    if want.suspected_blockpage is not None:
        parts.append(f"suspected_blockpage={want.suspected_blockpage}")
    return " ".join(parts)
