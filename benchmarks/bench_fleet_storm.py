"""Fleet-scale storm: 100k cohort clients absorbing a blocking wave.

Not a paper artefact — the capacity check for the §7 deployment story.
The paper's economics assume C-Saw runs at the scale of "millions of
users"; this bench drives a :class:`~repro.core.fleet.ClientCohort`
(clients as per-AS record arrays, not objects) through reporter posts,
staggered batched delta pulls, and convergence tracking, and reports

- reports/sec absorbed by the global_DB during the detection window,
- time-to-convergence of each AS's blocked list after the wave,
- delta-sync bytes and rows per client,

plus four live guards: the columnar batch path beats the per-client
row twin (``tests/_reference_globaldb.py``) by >= 3x on the pull storm,
the version-run sweep beats the per-client reference loop
(``tests/_reference_fleet.py``) by >= 3x on the 100k storm, a
three-plane mix costs at most 1.5x the single-plane storm, and the
million-client storm stays within a budget relative to the 100k storm.
Correctness checks that time nothing live in tier-1
(``tests/test_fleet.py``).

Wall-clock timing here uses ``time.perf_counter`` directly — allowed
under ``benchmarks/*`` by the CSL002 scope — and always as back-to-back
in-process ratios, which hold on this drifting box where recorded
absolute numbers do not.
"""

import time
from array import array

from conftest import run_once
from repro.core.fleet import run_fleet_storm
from repro.core.globaldb import ReportItem, ServerDB
from repro.core.records import BlockType
from repro.core.reporting import GlobalView
from tests._reference_fleet import run_reference_storm
from tests._reference_globaldb import apply_sync, sync_for_as

_PULL_STORM_CACHE = {}


def _build_pull_storm_server(n_entries=100_000, n_ases=50, urls_per_client=50):
    """A ServerDB holding ``n_entries`` blocked rows spread over ``n_ases``.

    2 000 registered clients each vouch for 50 URLs on their own AS, the
    shape a large deployment converges to.  Built once and cached: the
    benchmark times the pull path, not table construction.
    """
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


def run_fleet_pull_storm_batch(n_clients=2000, n_ases=10):
    """Cohort-scale pull storm, columnar path: 2000 clients across 10
    ASes (200 per AS — the regime the fleet layer targets).  One
    ``SyncBatch`` is built per AS and shared by every client on it, one
    shared view is materialized per AS in a single columnar pass
    (mean-field: every client of an AS sees identical server state), and
    per-client bookkeeping is a record-array version write.  The per-AS
    amortization is the ``>=3x`` lever over the row path below."""
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
    """The same pull storm on the per-client row twin: every client gets
    its own ``SyncResult`` built and folds it into its own view — one
    pull at a time, paid once per cohort member.  Kept timed so the
    batch path's speedup stays visible."""
    server = _build_pull_storm_server()
    per_as = 100_000 // 50
    total = 0
    for index in range(n_clients):
        asn = 30000 + index % n_ases
        result = sync_for_as(server, asn, now=10.0)
        view = GlobalView()
        apply_sync(view, result, now=10.0)
        total += len(view)
    assert total == n_clients * per_as
    return total


def run_plane_mix_storm():
    """The 100k storm with a three-plane mix (C-Saw + Encore + generated
    probe lists) instead of the single C-Saw plane.  Same fleet shape as
    the single-plane 100k storm and the same combined 1% reporter mass —
    the mix splits it 0.4/0.5/0.1 — so what's measured is the overhead of
    the plane *machinery*: per-plane RNG streams, per-reporter Encore
    item draws, per-plane convergence curves, and per-plane ledger tags
    on the server (report volume would otherwise dominate and the ratio
    would just measure reporter count)."""
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


def test_fleet_report_storm_100k(benchmark, report):
    """>= 100k cohort clients through batched delta sync (acceptance b)."""
    wall_start = time.perf_counter()
    metrics = run_once(benchmark, lambda: run_fleet_storm(
        seed=0, n_ases=50, clients_per_as=2000
    ))
    wall = time.perf_counter() - wall_start

    assert metrics.n_clients == 100_000
    assert metrics.n_ases == 50
    # 20 reporters per AS (1% of 2000) x 20 wave URLs x 50 ASes.
    assert metrics.reports_absorbed == 20_000
    # Every AS's cohort must converge on the wave within the horizon.
    assert len(metrics.convergence_by_as) == 50
    assert all(t >= 0 for t in metrics.convergence_by_as.values())
    # Every client pulled at least twice (staggered over two intervals).
    assert metrics.pulls_served >= 2 * metrics.n_clients
    # Batching: far fewer batches built than pulls served.
    assert metrics.batches_built * 10 < metrics.pulls_served
    assert metrics.bytes_per_client > 0
    assert metrics.rows_per_client > 0
    # The horizon outlives every detection delay: no report left pending.
    assert metrics.pending_at_horizon == 0

    summary = metrics.summary()
    lines = [
        "fleet report storm: 100k clients, 50 ASes, 1% reporters",
        f"  reports absorbed: {metrics.reports_absorbed} "
        f"in {metrics.report_window:.1f} sim-s "
        f"({metrics.reports_absorbed / wall:,.0f}/s wall)",
        f"  pulls served: {metrics.pulls_served} "
        f"via {metrics.batches_built} batches",
        f"  delta sync per client: {metrics.bytes_per_client:.0f} bytes, "
        f"{metrics.rows_per_client:.1f} rows",
        f"  convergence after wave: mean {metrics.mean_convergence:.0f} "
        f"sim-s, max {metrics.max_convergence:.0f} sim-s",
    ]
    report("\n".join(lines))
    assert summary["n_clients"] == 100_000


def test_batched_sync_beats_rows_3x(report):
    """Acceptance (c): the columnar batch path must beat the per-client
    row path by >= 3x on the pull storm at cohort scale (200 clients/AS
    amortize each AS's batch + shared view across its whole cohort)."""
    _build_pull_storm_server()  # build outside the timed region

    def best_of(fn, rounds=3):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    batch = best_of(run_fleet_pull_storm_batch)
    rows = best_of(run_fleet_pull_storm_rows)
    speedup = rows / batch
    report(
        "fleet pull storm (2000 clients, 10 ASes, 2000 rows/AS):\n"
        f"  batch: {batch * 1000:.1f} ms   rows: {rows * 1000:.1f} ms   "
        f"speedup: {speedup:.1f}x"
    )
    assert speedup >= 3.0, (
        f"batched sync only {speedup:.1f}x over the row path (need >= 3x)"
    )


def test_grouped_sweep_beats_spec_3x(report):
    """Sweep guard (DESIGN.md §11, §15): the version-run sweep must beat
    the per-client reference loop by >= 3x on the 100k report storm.
    The reference keeps the pre-round-4 per-client cost shape, so this
    back-to-back in-process ratio stands in for the cross-epoch speedup
    that recorded absolute numbers can't prove on this box."""
    kwargs = dict(seed=0, n_ases=50, clients_per_as=2000)
    grouped_best = spec_best = float("inf")
    grouped = spec = None
    for _ in range(3):  # interleave rounds so drift hits both sides alike
        start = time.perf_counter()
        grouped = run_fleet_storm(**kwargs)
        grouped_best = min(grouped_best, time.perf_counter() - start)
        start = time.perf_counter()
        spec = run_reference_storm(**kwargs)
        spec_best = min(spec_best, time.perf_counter() - start)

    # The fast path is an optimization, never a semantic change.
    assert grouped.summary() == spec.summary()

    speedup = spec_best / grouped_best
    report(
        "version-run sweep vs per-client reference loop "
        "(100k clients, 50 ASes):\n"
        f"  grouped: {grouped_best * 1000:.0f} ms   "
        f"spec: {spec_best * 1000:.0f} ms   speedup: {speedup:.1f}x"
    )
    assert speedup >= 3.0, (
        f"sweep only {speedup:.1f}x over the reference loop (need >= 3x)"
    )


def test_plane_mix_storm_within_1_5x_of_single_plane(report):
    """Plane-machinery guard: a three-plane 100k storm (C-Saw + Encore +
    generated probe lists at the same combined 1% reporter mass) may
    cost at most 1.5x the single-plane 100k storm.
    Plane groups add per-plane RNG streams, per-reporter Encore item
    draws and per-plane curves; the ledger's per-plane histograms are
    built only when read, which no storm does.  A plane's reporters due
    in one tick post in one write call, where a fresh reporter's upload
    of items the call already applied is absorbed by count, so report
    absorption does not dominate either storm; the ratio mostly
    measures what the mix adds on its own: the one-client steps of
    Encore's thinned lists until the call has applied every wave item,
    the batch builds its extra shard versions cause, and per-plane wave
    set-up (DESIGN.md §16).  Interleaved best-of-3, same idiom as the
    grouped-vs-spec guard."""
    single_best = mixed_best = float("inf")
    mixed = None
    for _ in range(3):  # interleave rounds so drift hits both sides alike
        start = time.perf_counter()
        single = run_fleet_storm(seed=0, n_ases=50, clients_per_as=2000)
        single_best = min(single_best, time.perf_counter() - start)
        start = time.perf_counter()
        mixed = run_plane_mix_storm()
        mixed_best = min(mixed_best, time.perf_counter() - start)

    assert single.n_clients == mixed.n_clients == 100_000
    assert sum(mixed.reports_by_plane.values()) == mixed.reports_absorbed
    assert all(
        t >= 0
        for by_as in mixed.convergence_by_plane.values()
        for t in by_as.values()
    )

    ratio = mixed_best / single_best
    report(
        "plane-mix storm vs single-plane storm (100k clients, 50 ASes):\n"
        f"  single: {single_best * 1000:.0f} ms   "
        f"mixed: {mixed_best * 1000:.0f} ms   ratio: {ratio:.2f}x\n"
        f"  reports by plane: {dict(sorted(mixed.reports_by_plane.items()))}"
    )
    assert ratio <= 1.5, (
        f"three-plane storm costs {ratio:.2f}x the single-plane storm "
        "(budget 1.5x)"
    )


def test_fleet_report_storm_1m_within_budget(report):
    """Acceptance: one million clients (100 ASes x 10 000) through the
    full wave + pull storm inside a wall-clock budget.  The budget is
    relative — 10x the population may cost at most 30x the 100k storm
    timed back-to-back on the same box (measured ~10x) — with a floor so
    an unusually fast yardstick run cannot make it vacuously tight."""
    start = time.perf_counter()
    yardstick = run_fleet_storm(seed=0, n_ases=50, clients_per_as=2000)
    wall_100k = time.perf_counter() - start
    assert yardstick.n_clients == 100_000

    start = time.perf_counter()
    metrics = run_fleet_storm(seed=0, n_ases=100, clients_per_as=10_000)
    wall_1m = time.perf_counter() - start

    assert metrics.n_clients == 1_000_000
    assert metrics.reports_absorbed == 200_000
    assert len(metrics.convergence_by_as) == 100
    assert all(t >= 0 for t in metrics.convergence_by_as.values())
    assert metrics.pending_at_horizon == 0
    assert metrics.pulls_served >= 2 * metrics.n_clients

    budget = max(30.0 * wall_100k, 5.0)
    report(
        "fleet report storm: 1M clients, 100 ASes, 1% reporters\n"
        f"  wall: {wall_1m:.2f} s (100k yardstick {wall_100k:.2f} s, "
        f"budget {budget:.1f} s)\n"
        f"  pulls served: {metrics.pulls_served:,} "
        f"via {metrics.batches_built:,} batches\n"
        f"  convergence after wave: mean {metrics.mean_convergence:.0f} "
        f"sim-s, max {metrics.max_convergence:.0f} sim-s"
    )
    assert wall_1m <= budget, (
        f"1M storm took {wall_1m:.2f} s; budget {budget:.1f} s "
        f"(30x the {wall_100k:.2f} s 100k storm)"
    )
