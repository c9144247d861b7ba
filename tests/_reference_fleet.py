"""Per-client reference for the fleet cohort's pull sweep and posts.

:class:`ReferenceClientCohort` is :class:`~repro.core.fleet.ClientCohort`
with the original one-client-at-a-time pull loop and report loop.  Its
shards store the per-client record arrays the pull loop mutates — the
shard version each client last applied, its next pull deadline, and the
rows and bytes it received — where the production shard keeps stagger
offsets, version runs and a log of served run slices.  Its report loop
posts each due reporter with its own ``post_update`` call, where
production hands a plane's due reporters, with the shared list or each
reporter's own, to one ``post_updates`` call per tick, and when a
plane's target is set it counts the clients below it from that
versions array, where production sums the version runs.
This is the executable spec the version-run sweep and the grouped posts
must match bit for bit (``tests/test_properties.py``,
``TestGroupedSweepProperties``, and the ``"spec"`` entry of
``tests/data/plane_golden.json``); only tests and
``benchmarks/bench_fleet_storm.py`` use it.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Optional, Sequence

from repro.core.fleet import ClientCohort, CohortAs, FleetMetrics
from repro.core.globaldb import SYNC_HEADER_BYTES, ServerDB
from repro.simnet.engine import Environment


class ReferenceCohortAs(CohortAs):
    """A shard whose per-client arrays are stored, not implied."""

    __slots__ = (
        "versions", "next_pull_at", "pull_order", "bytes_received",
        "rows_received",
    )

    def __init__(self, asn, n, pull_interval, rng):
        super().__init__(asn, n, pull_interval, rng)
        self.versions = array("q", [-1]) * n  # -1 = never synced
        self.next_pull_at = array("d", self.offsets)
        self.pull_order = range(n)
        self.bytes_received = array("q", [0]) * n
        self.rows_received = array("q", [0]) * n


class ReferenceClientCohort(ClientCohort):
    """ClientCohort that serves due clients and posts due reporters one
    at a time."""

    _shard_type = ReferenceCohortAs

    def _post_due_reports(self, st: CohortAs, now: float) -> None:
        server = self.server
        metrics = self.metrics
        by_plane = metrics.reports_by_plane
        for group in st.groups:
            order = group.report_order
            shared = group.items  # one shared list per shard per wave
            items_by_r = group.items_by_r
            pending = group.pending
            while group.report_ptr < len(order):
                r = order[group.report_ptr]
                if group.report_at[r] > now:
                    break
                items = shared if items_by_r is None else items_by_r[r]
                if items or items_by_r is None:
                    accepted = server.post_update(group.uuids[r], items, now)
                    metrics.reports_absorbed += accepted
                    by_plane[group.name] = (
                        by_plane.get(group.name, 0) + accepted
                    )
                    if metrics.first_report_at is None:
                        metrics.first_report_at = now
                    metrics.last_report_at = now
                # else: a per-reporter plane whose vantage observed
                # nothing (e.g. every blockpage misclassified) — no
                # server call, no report-window update.
                pending[r] = 0
                group.report_ptr += 1
                if group.report_ptr == len(order):
                    # This plane's last reporter posted: the shard
                    # version now is the plane's convergence target, and
                    # the clients still below it are its unconverged.
                    target = server.version_for_as(st.asn)
                    group.target_version = target
                    group.unconverged = sum(
                        1 for version in st.versions if version < target
                    )

    def _service_pulls(self, st: CohortAs, now: float) -> None:
        """Serve every client whose periodic pull came due, one at a time.

        Clients due in the same sweep that share a since-version also
        share one server-built :class:`SyncBatch` — the columnar format
        makes the share free (immutable parallel tuples).

        The loop intentionally keeps the O(population) shape (per-client
        batch lookups, wire-size property calls) the fleet layer shipped
        with before hot-path round 4.
        """
        server, metrics = self.server, self.metrics
        order, next_pull = st.pull_order, st.next_pull_at
        versions = st.versions
        batch_cache: Dict[int, object] = {}
        n = st.n
        served = 0
        while served < n:
            i = order[st.pull_ptr % n]
            if next_pull[i] > now:
                break
            since = versions[i]
            batch = batch_cache.get(since)
            if batch is None:
                batch = server.sync_batch_for_as(
                    st.asn, now,
                    since_version=None if since < 0 else since,
                )
                batch_cache[since] = batch
                metrics.batches_built += 1
            versions[i] = batch.version
            rows = batch.transferred
            if rows:
                st.rows_received[i] += rows
                st.bytes_received[i] += batch.wire_bytes
                metrics.sync_rows += rows
                metrics.sync_bytes += batch.wire_bytes
            else:
                metrics.sync_bytes += SYNC_HEADER_BYTES  # empty delta
            next_pull[i] += self.pull_interval
            st.pulls += 1
            metrics.pulls_served += 1
            st.pull_ptr += 1
            served += 1
            for group in st.groups:
                gt = group.target_version
                if (
                    gt is not None
                    and group.unconverged
                    and since < gt <= batch.version
                ):
                    group.unconverged -= 1


def run_storm(
    cohort_type,
    seed: int = 0,
    n_ases: int = 50,
    clients_per_as: int = 2000,
    urls_per_as: int = 20,
    pull_interval: float = 600.0,
    wave_at: Optional[float] = 300.0,
    horizon: Optional[float] = None,
    asn_base: int = 40000,
    planes: Optional[Sequence] = None,
    wave_stagger: float = 0.0,
    server: Optional[ServerDB] = None,
    tick: Optional[float] = None,
    after_sweep: Optional[Callable[[ClientCohort], None]] = None,
) -> ClientCohort:
    """Drive one storm as :func:`~repro.core.fleet.run_fleet_storm` does,
    on ``cohort_type``, and return the finalized cohort.

    Beyond ``run_fleet_storm``'s arguments: ``wave_at=None`` starts no
    wave (``horizon`` is then required), ``tick`` sets the service
    granularity, and ``after_sweep(cohort)`` runs after every
    ``service()`` sweep.
    """
    if server is None:
        server = ServerDB(entry_ttl=None)
    env = Environment()
    cohort = cohort_type(
        server,
        asns=[asn_base + i for i in range(n_ases)],
        clients_per_as=clients_per_as,
        seed=seed,
        pull_interval=pull_interval,
        tick=tick,
        planes=planes,
    )
    if after_sweep is not None:
        service = cohort.service

        def checked_service(now: float) -> None:
            service(now)
            after_sweep(cohort)

        cohort.service = checked_service

    if wave_at is not None:
        def driver():
            yield env.timeout(wave_at)
            cohort.start_wave(
                env.now, urls_per_as=urls_per_as, stagger=wave_stagger
            )

        env.process(driver())
    stop_at = (
        horizon
        if horizon is not None
        else wave_at + 2.0 * pull_interval + wave_stagger + cohort.tick
    )
    env.process(cohort.run(env, stop_at))
    env.run()
    cohort.finalize()
    return cohort


def run_reference_storm(**kwargs) -> FleetMetrics:
    """``run_fleet_storm(**kwargs)`` on the per-client reference loop."""
    return run_storm(ReferenceClientCohort, **kwargs).metrics
