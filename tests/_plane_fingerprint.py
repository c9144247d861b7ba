"""Behavioral fingerprint for the fleet reporter path (plane refactor).

The measurement-plane refactor (ISSUE 10) rewires ``core/fleet.py``'s
wave/report path through the :mod:`repro.planes` abstraction, with the
in-browser C-Saw plane as its first implementation.  The contract is
*bit-identical behavior under the same seed* for the single-plane case:
the fingerprint below was captured from the pre-refactor pipeline
(commit efd74f9) into ``tests/data/plane_golden.json`` and
``tests/test_planes.py`` re-computes it against the plane-backed path.

The fingerprint exercises the fleet storm end to end — per-client record
arrays (versions, pull schedules as exact float reprs, byte/row costs),
reporter identities and detection times, server-side global_DB rows,
per-key voting statistics, serve counters, and the metrics summary — for
the production sweep (``"grouped"``) and the per-client reference loop
in ``tests/_reference_fleet.py`` (``"spec"``), so any drift in RNG draw
order, registration order, report batching, or convergence accounting
shows up as a diff.

Floats travel as ``repr`` strings so JSON round-trips keep full
precision (bit-identical means bit-identical).  The session-level
reporter path (``ReportingService`` / ``CSawClient``) is already pinned
by ``tests/data/scenario_golden.json``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "plane_golden.json")


def _freeze(value: Any) -> Any:
    """Floats -> repr strings, recursively (exact JSON round-trip)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {
            str(k): _freeze(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_freeze(v) for v in value]
    return value


def storm_fingerprint(cohort_type, seed: int = 7) -> Dict[str, Any]:
    """One small fleet storm on ``cohort_type``, captured down to every
    record array."""
    from repro.core.globaldb import ServerDB
    from repro.simnet.engine import Environment

    server = ServerDB(entry_ttl=None)
    env = Environment()
    cohort = cohort_type(
        server,
        asns=[41000 + i for i in range(4)],
        clients_per_as=60,
        seed=seed,
        reporter_fraction=0.05,
        pull_interval=600.0,
    )

    def driver():
        yield env.timeout(300.0)
        cohort.start_wave(env.now, urls_per_as=5)

    env.process(driver())
    env.process(cohort.run(env, 300.0 + 2.0 * 600.0 + cohort.tick))
    env.run()
    metrics = cohort.finalize()

    shards = []
    for st in cohort.shards:
        shards.append({
            "asn": st.asn,
            "versions": list(st.versions),
            "next_pull_at": [repr(x) for x in st.next_pull_at],
            "bytes_received": list(st.bytes_received),
            "rows_received": list(st.rows_received),
            "reporter_ix": sorted(st.reporter_ix),
            "reporter_uuids": sorted(st.reporter_uuids),
            "report_at": [repr(x) for x in st.report_at],
            "pending": list(st.pending),
            "target_version": st.target_version,
            "converged_at": repr(st.converged_at),
        })

    rows = sorted(
        [
            entry.url,
            entry.asn,
            [s.value for s in entry.stages],
            repr(entry.measured_at),
            repr(entry.posted_at),
            repr(entry.first_measured_at),
            entry.last_uuid,
        ]
        for entry in server.all_entries()
    )
    votes = sorted(
        [
            entry.url,
            entry.asn,
            repr(server.voting.stats(entry.url, entry.asn).votes),
            server.voting.stats(entry.url, entry.asn).reporters,
        ]
        for entry in server.all_entries()
    )
    return {
        "summary": _freeze(metrics.summary()),
        "convergence_by_as": _freeze(metrics.convergence_by_as),
        "pending_by_as": _freeze(metrics.pending_by_as),
        "shards": shards,
        "server_rows": rows,
        "vote_stats": votes,
        "serve_counters": [
            server.full_syncs_served,
            server.delta_syncs_served,
            server.update_count,
            server.client_count,
        ],
    }


def all_fingerprints() -> Dict[str, Any]:
    from repro.core.fleet import ClientCohort
    from tests._reference_fleet import ReferenceClientCohort

    return {
        "grouped": storm_fingerprint(ClientCohort),
        "spec": storm_fingerprint(ReferenceClientCohort),
    }


def load_golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(all_fingerprints(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
