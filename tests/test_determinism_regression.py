"""Same-seed runs must be bit-identical — including across hash seeds.

Set-iteration order bugs do NOT reproduce inside one process (a string
hashes the same all process long), so the cross-run checks here execute
the pipeline in subprocesses under *different* ``PYTHONHASHSEED`` values
and diff the canonical JSON output.  This is the executable form of the
invariant csaw-analyze CSL003 enforces statically: the paper's s_{j,k}
statistics and Table-7 rows are only meaningful if two runs of the same
experiment seed agree bit-for-bit."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.censor.fingerprint import FingerprintAnalyzer
from repro.core.globaldb import ReportItem, ServerDB
from repro.core.records import BlockType
from repro.core.reputation import ReputationAnalyzer

REPO = Path(__file__).resolve().parents[1]

# One canonical rendering of the crowdsourcing pipeline: a small pilot
# (sim + reporting + sync), per-AS analytics, reputation enforcement
# (revocation order mutates server change logs), and a staggered
# rollout's deterministic default stream.
_PIPELINE = r"""
import json
from repro.core.analytics import MeasurementAnalytics
from repro.core.reputation import ReputationAnalyzer
from repro.workloads.events import staggered_rollout
from repro.workloads.pilot import PilotConfig, PilotStudy

study = PilotStudy(PilotConfig(
    seed=11, n_users=6, n_sites=120, requests_per_user=10,
    duration_days=8.0, n_ases=4,
))
report = study.run()
out = {"pilot": report.rows()}

analytics = MeasurementAnalytics(study.server)
out["as_summaries"] = [
    [s.asn, s.blocked_urls, s.blocked_domains, s.reporters,
     list(map(list, s.blocking_types))]
    for s in analytics.all_as_summaries()
]
out["top_domains"] = analytics.top_blocked_domains(limit=5)

# Thresholds chosen to flag every reporter: the point is the *order* in
# which revocation mutates the ledger, not who gets flagged.
out["revoked"] = list(ReputationAnalyzer(study.server).enforce(
    min_volume=1, max_corroboration=2.0))
out["post_revoke_entries"] = sorted(
    e.url for e in study.server.all_entries())

out["rollout"] = [
    [e.time, e.asn, e.domain]
    for e in staggered_rollout(["a.example", "b.example"], [10, 11, 12],
                               start=5.0, lag=3600.0)
]

# The trace bus feeds these: per-stage PLT seconds aggregated over every
# client.  hex() keeps the comparison bit-exact.
breakdown = {}
for client in study.clients:
    for stage, seconds in client.measurement.stage_seconds.items():
        breakdown[stage] = breakdown.get(stage, 0.0) + seconds
out["plt_breakdown"] = {k: v.hex() for k, v in breakdown.items()}
print(json.dumps(out, sort_keys=True))
"""


def _run_pipeline(hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", _PIPELINE],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
        check=True,
    )
    return result.stdout


class TestCrossHashSeedDeterminism:
    @pytest.fixture(scope="class")
    def outputs(self):
        return {seed: _run_pipeline(seed) for seed in ("0", "1", "31337")}

    def test_pipeline_identical_across_hash_seeds(self, outputs):
        baseline = outputs["0"]
        assert json.loads(baseline)["pilot"], "pipeline produced no report"
        for seed, output in outputs.items():
            assert output == baseline, (
                f"PYTHONHASHSEED={seed} diverged from PYTHONHASHSEED=0: "
                "set/hash order is leaking into reports"
            )

    def test_repeat_run_identical_under_same_hash_seed(self, outputs):
        assert _run_pipeline("0") == outputs["0"]

    def test_revocation_actually_exercised(self, outputs):
        payload = json.loads(outputs["0"])
        assert payload["revoked"], "enforce() flagged nobody; test is vacuous"


class TestSessionRefactorGolden:
    """The MeasurementSession refactor must not move a single event.

    ``tests/data/session_refactor_golden.json`` was captured from the
    pre-refactor request path (commit c0895d8): same seeds, same
    requests, byte-for-byte the same statuses, paths, PLTs (hex floats)
    and pilot aggregates.  If this fails, the session layer changed the
    engine's event-creation or RNG-draw order — see the regeneration
    notes in ``tests/_session_golden.py``."""

    def test_bit_identical_to_pre_refactor_snapshot(self):
        from tests._session_golden import capture

        golden = json.loads(
            (REPO / "tests" / "data" / "session_refactor_golden.json")
            .read_text()
        )
        assert capture() == golden


class TestOrderedAccumulators:
    """In-process checks that the fixed sites expose insertion order."""

    @staticmethod
    def _seed_server(n_clients=5):
        server = ServerDB(entry_ttl=None)
        uuids = [server.register(now=float(i)) for i in range(n_clients)]
        for i, uuid in enumerate(uuids):
            items = [
                ReportItem(
                    url=f"http://site-{j}.example/",
                    asn=1,
                    stages=(BlockType.BLOCK_PAGE,),
                    measured_at=1.0,
                )
                for j in range(i + 1)
            ]
            server.post_update(uuid, items, now=2.0 + i)
        return server, uuids

    def test_flag_suspects_preserves_ledger_order(self):
        server, uuids = self._seed_server()
        suspects = ReputationAnalyzer(server).flag_suspects(
            min_volume=1, max_corroboration=2.0
        )
        assert list(suspects) == uuids

    def test_enforce_returns_set_like_view(self):
        server, uuids = self._seed_server(n_clients=2)
        revoked = ReputationAnalyzer(server).enforce(
            min_volume=1, max_corroboration=2.0
        )
        assert revoked == set(uuids)
        assert all(not server.is_registered(u) for u in uuids)

    def test_fingerprint_classify_preserves_flow_order(self):
        ips = [f"10.0.0.{i}" for i in (7, 3, 9, 1, 5)]
        flows = [
            SimpleNamespace(src_ip=ip, dst_ip="203.0.113.1", time=float(i))
            for i, ip in enumerate(ips)
        ]
        blocks = [
            SimpleNamespace(src_ip=ip, time=float(i) - 0.5)
            for i, ip in enumerate(ips)
        ]
        middlebox = SimpleNamespace(flows=flows, log=blocks)
        analyzer = FingerprintAnalyzer(middlebox, relay_ips={"203.0.113.1"})
        labelled = analyzer.classify(threshold=0.0)
        # Insertion (flow-arrival) order, not hash order.
        assert list(labelled) == ips
        assert labelled == set(ips)
