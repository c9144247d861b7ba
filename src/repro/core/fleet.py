"""Fleet-scale client cohorts: millions of vantages as record arrays.

The engine, voting, and per-AS shard layers are each fast in isolation;
this module exercises them *together* at population scale.  A
:class:`ClientCohort` represents thousands-to-millions of C-Saw clients
without one ``CSawClient`` object per user.  Each AS's population is
stored by service rank as one per-client array, a run queue and a
log, from which the per-client ``versions``, ``next_pull_at``,
``rows_received`` and ``bytes_received`` views are built when read —

- ``offsets``       each client's pull stagger, rank-sorted at
                    construction; a client's next pull is its offset
                    plus ``pull_interval`` once per pull served;
- ``runs``          ``[count, since_version]`` runs of clients in
                    service order from ``pull_ptr`` (−1 = never synced
                    → next pull is a full snapshot);
- ``sync_log``      one ``(lo, count, rows, wire)`` record per served
                    run slice that carried rows: the delta-sync cost of
                    ``count`` ranks from ``lo``, cyclically;
- ``groups``        one reporter group per measurement plane (below).

The mean-field observation that makes this sound: every client of an AS
consumes the same server-side change stream, so a client's blocked-list
view is a pure function of the shard version it last applied.  Only
schedule offsets, sync costs, and reporter state differ per client.
ICLab-style fleets (many lightweight vantages, aggregate load is the
bottleneck) and Turkmenistan-style low-penetration studies (huge
populations, few active reporters) both fit this shape.

Pulls ride the *columnar* delta-sync wire format
(:meth:`~repro.core.globaldb.ServerDB.sync_batch_for_as`): one batch is
built per (AS, since-version) per service tick and shared by every
client at that version.  Reports go through the server's one write
path, so the voting ledger and shard change logs see real traffic: the
reporters of one plane due in one tick post in one
:meth:`~repro.core.globaldb.ServerDB.post_updates` call, a shared-list
plane's common list or a per-reporter plane's (Encore's) own lists, and
the server absorbs a fresh reporter's upload of items the call already
applied by count (DESIGN.md §16).

Sweeps work on *version runs* (DESIGN.md §15): the clients due in a
sweep are a prefix of ``runs``, found by bisecting the offsets, and
every client of a run receives the same batch, the same row/byte
increments and the same resulting version.  A sweep therefore costs
O(distinct since-versions), however many clients are due.

Process fan-out: :func:`run_fleet_storm_sharded` partitions the AS
space across worker processes with :mod:`repro.runner` — shards are
independent by construction, so each worker simulates its slice of the
fleet against its own :class:`ServerDB` and the per-AS metrics merge by
concatenation (global counters by summation).

**Measurement planes** (DESIGN.md §13): each AS's reporter population is
a list of :class:`_PlaneGroup` records, one per
:class:`repro.planes.MeasurementPlane` in the cohort's mix — per-plane
reporter indices, server-issued identities (reputation and voting run
on real identities), detection schedules, pending counts, item lists,
and convergence state.  The default mix is a single
:class:`~repro.planes.CSawBrowserPlane` at 1%, bit-identical to the
pre-plane pipeline (``tests/data/plane_golden.json``): plane 0 draws
from the shard's own RNG stream in the historical order, while every
additional plane draws from its own ``derive_seed(seed, "fleet-plane",
name, asn)`` stream — so adding a plane never perturbs the C-Saw
subpopulation, and sharded workers stay draw-identical for any worker
count.

**Convergence** (DESIGN.md §9.3) is kept per plane only.  When a
plane's last reporter posts, the AS's shard version becomes the plane's
target, and the plane's ``unconverged`` count starts as the clients
whose applied version is below it; each later pull that brings a run
to the target takes its clients off.  A plane converges when the count
reaches zero, and an AS once all its planes have, at the latest plane's
time.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, repeat, starmap
from operator import add
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..runner import TrialSpec, derive_seed, merge_values, run_trials
from ..simnet.engine import Environment
from .globaldb import SYNC_HEADER_BYTES, ReportItem, ServerDB
from .records import BlockType

# NOTE: the planes package imports this module (WAVE_STAGES), so planes
# themselves are imported lazily inside methods — never at module level.

__all__ = [
    "CohortAs",
    "ClientCohort",
    "FleetMetrics",
    "run_fleet_storm",
    "run_fleet_storm_sharded",
]

#: Stage evidence the wave's reporters upload (multi-stage blocking).
WAVE_STAGES: Tuple[BlockType, ...] = (BlockType.DNS_TIMEOUT, BlockType.BLOCK_PAGE)


def _add_cyclic(diff: array, lo: int, count: int, n: int, value: int) -> None:
    """Add ``value`` to ``count`` consecutive ranks from ``lo`` (wrapping
    past rank ``n - 1``) of the per-rank array that ``diff`` encodes."""
    diff[lo] += value
    hi = lo + count
    if hi <= n:
        diff[hi] -= value
    else:
        diff[0] += value
        diff[hi - n] -= value


class _PlaneGroup:
    """One measurement plane's reporter subpopulation within an AS.

    Reporter indices and server identities, detection schedule,
    per-reporter pending counts, the plane's item lists (one shared
    list, or per-reporter lists for planes whose vantages each observe
    their own subset), and the plane's convergence target, count and
    curve: ``unconverged`` counts the clients whose applied version is
    below ``target_version`` (all ``n`` until the target is set).
    """

    __slots__ = (
        "plane", "name", "reporter_ix", "uuids", "report_at",
        "report_order", "report_ptr", "pending", "items", "items_by_r",
        "target_version", "unconverged", "converged_at", "curve",
        "last_converged",
    )

    def __init__(self, plane, n_clients: int):
        self.plane = plane
        self.name = plane.profile.name
        self.reporter_ix = array("l")
        self.uuids: List[str] = []
        self.report_at = array("d")
        self.report_order: List[int] = []
        self.report_ptr = 0
        self.pending = array("l")
        self.items: List[ReportItem] = []
        # Per-reporter item lists (plane.per_reporter_items), each
        # emptied once its reporter posts; None for shared-list planes —
        # posts then use ``items`` directly.
        self.items_by_r: Optional[List[Sequence[ReportItem]]] = None
        self.target_version: Optional[int] = None
        self.unconverged = n_clients
        self.converged_at: Optional[float] = None
        # Convergence-curve events: (sim time, clients converged so far)
        # recorded at service-tick granularity — it samples end-of-tick
        # state, not the order clients were served in.
        self.curve: List[Tuple[float, int]] = []
        self.last_converged = 0


class CohortAs:
    """One AS's client population: stagger offsets, version runs, and
    per-client sync cost as a log of served run slices (DESIGN.md §15).

    ``offsets`` is its one array with an entry per client; the sync log
    grows with the run slices served, not with ``n``.
    """

    __slots__ = (
        "asn", "n", "rng", "pull_interval", "offsets", "runs", "pull_ptr",
        "sync_log", "pulls", "wave_urls", "groups", "wave_started_at",
    )

    def __init__(self, asn: int, n: int, pull_interval: float,
                 rng: random.Random):
        self.asn = asn
        self.n = n
        self.rng = rng
        self.pull_interval = pull_interval
        # Staggered periodic pulls: offsets are fixed per client and
        # stored *rank-sorted*, so client index == service rank and the
        # due order is cyclic from ``pull_ptr``.  Clients are
        # exchangeable aside from the independently-sampled reporter
        # subset, so sorting the offsets relabels clients without
        # changing any aggregate outcome.  ``uniform(0, I)`` is
        # ``0.0 + I * random()`` and scaling by ``I > 0`` is monotone,
        # so sorting the unit draws, then scaling, gives the sorted
        # ``uniform`` draws bit for bit, from the same stream position.
        draws = list(starmap(rng.random, repeat((), n)))
        draws.sort()
        self.offsets = array("d", [x * pull_interval for x in draws])
        # Since-versions as [count, version] runs in service order from
        # pull_ptr, oldest first; -1 = never synced.
        self.runs: Deque[List[int]] = deque([[n, -1]])
        self.pull_ptr = 0
        # Rows/bytes received, as flat (lo, count, rows, wire) records
        # of the served run slices that carried rows, in service order.
        self.sync_log = array("q")
        self.pulls = 0
        # Blocking-wave state (filled by start_wave / reporter posts):
        # one _PlaneGroup per plane in the cohort's mix.
        self.wave_urls: List[str] = []
        self.groups: List[_PlaneGroup] = []
        self.wave_started_at: Optional[float] = None

    def due(self, now: float) -> int:
        """How many clients from ``pull_ptr`` on are due by ``now`` (at
        most ``n``).  Deadlines are non-decreasing in service order, so
        bisecting the offsets at ``now`` minus whole intervals lands
        within rounding of the end of the due prefix; exact deadlines
        then step over the last few ulps."""
        n, ptr = self.n, self.pull_ptr
        offsets, interval = self.offsets, self.pull_interval
        laps, start = divmod(ptr, n)
        cut = now - laps * interval
        end = bisect_right(offsets, cut, start)
        due = end - start
        if end == n:  # the due range may wrap to ranks served once more
            due += bisect_right(offsets, cut - interval, 0, start)

        def deadline(pos: int) -> float:
            # The offset plus one interval per pull served, added in turn.
            laps, rank = divmod(ptr + pos, n)
            return reduce(add, repeat(interval, laps), offsets[rank])

        while due < n and deadline(due) <= now:
            due += 1
        while due and deadline(due - 1) > now:
            due -= 1
        return due

    # Per-client views, built on read; only tests and goldens use them.

    @property
    def versions(self) -> array:
        """Shard version each client last applied, by rank."""
        in_order = array("q")
        for count, version in self.runs:
            in_order.extend(array("q", [version]) * count)
        split = self.n - self.pull_ptr % self.n
        return in_order[split:] + in_order[:split]

    @property
    def next_pull_at(self) -> array:
        """Each client's next pull time, by rank."""
        laps, start = divmod(self.pull_ptr, self.n)
        interval = self.pull_interval
        at = list(self.offsets)
        for _ in range(laps):
            at = [x + interval for x in at]
        at[:start] = [x + interval for x in at[:start]]
        return array("d", at)

    def _replay(self, column: int) -> array:
        """Column ``column`` of the sync log (2 = rows, 3 = wire bytes)
        summed per rank: the log's slices replayed into a difference
        array (the extra slot lets a range that ends at rank n - 1
        close without a test), then accumulated."""
        n, log = self.n, self.sync_log
        diff = array("q", [0]) * (n + 1)
        for lo, count, value in zip(log[0::4], log[1::4], log[column::4]):
            _add_cyclic(diff, lo, count, n, value)
        return array("q", accumulate(diff[:-1]))

    @property
    def rows_received(self) -> array:
        """Delta-sync rows each client received, by rank."""
        return self._replay(2)

    @property
    def bytes_received(self) -> array:
        """Delta-sync bytes each client received, by rank."""
        return self._replay(3)


@dataclass
class FleetMetrics:
    """Fleet-level outcome of one storm (merge-able across partitions)."""

    n_clients: int = 0
    n_ases: int = 0
    n_reporters: int = 0
    reports_absorbed: int = 0
    first_report_at: Optional[float] = None
    last_report_at: Optional[float] = None
    pulls_served: int = 0
    batches_built: int = 0
    sync_rows: int = 0
    sync_bytes: int = 0
    server_entries: int = 0
    convergence_by_as: Dict[int, float] = field(default_factory=dict)
    pending_by_as: Dict[int, int] = field(default_factory=dict)
    # Per-plane provenance (DESIGN.md §13).  Keys are plane names; the
    # single-plane storm has exactly one, DEFAULT_PLANE.  ``summary()``
    # is deliberately unchanged — per-plane views live in these fields
    # and :meth:`plane_summary`.
    reporters_by_plane: Dict[str, int] = field(default_factory=dict)
    reports_by_plane: Dict[str, int] = field(default_factory=dict)
    # plane -> asn -> seconds from wave onset (-1.0 = did not converge):
    # convergence of the *population* on the entries that plane's last
    # report pinned (the plane's own target shard version).
    convergence_by_plane: Dict[str, Dict[int, float]] = field(
        default_factory=dict
    )
    # plane -> [(seconds after wave onset, clients newly converged)]
    # events across all ASes; sort + cumulative-sum yields the
    # convergence curve (see repro.analysis.planes).
    curve_by_plane: Dict[str, List[Tuple[float, int]]] = field(
        default_factory=dict
    )

    @property
    def report_window(self) -> float:
        """Sim seconds from the first absorbed report to the last —
        kept as endpoints so partition merges stay exact (a max over
        per-partition windows would undercount the global span)."""
        if self.first_report_at is None or self.last_report_at is None:
            return 0.0
        return self.last_report_at - self.first_report_at

    @property
    def bytes_per_client(self) -> float:
        return self.sync_bytes / self.n_clients if self.n_clients else 0.0

    @property
    def rows_per_client(self) -> float:
        return self.sync_rows / self.n_clients if self.n_clients else 0.0

    @property
    def pending_at_horizon(self) -> int:
        """Wave URLs still unposted when the run ended, over all ASes —
        nonzero means the horizon cut off reporters mid-detection."""
        return sum(self.pending_by_as.values())

    @property
    def mean_convergence(self) -> float:
        values = [v for v in self.convergence_by_as.values() if v >= 0.0]
        return sum(values) / len(values) if values else float("nan")

    @property
    def max_convergence(self) -> float:
        values = [v for v in self.convergence_by_as.values() if v >= 0.0]
        return max(values) if values else float("nan")

    def merge(self, other: "FleetMetrics") -> "FleetMetrics":
        """Fold another partition's metrics in (AS sets must be disjoint).

        Partitions of a sharded storm never share an AS; an overlap
        means the caller merged the same slice twice, and silently
        letting ``dict.update`` clobber would undercount the fleet —
        so it raises instead.
        """
        overlap = self.convergence_by_as.keys() & other.convergence_by_as.keys()
        if overlap:
            raise ValueError(
                "overlapping AS partitions in FleetMetrics.merge: "
                f"{sorted(overlap)}"
            )
        self.n_clients += other.n_clients
        self.n_ases += other.n_ases
        self.n_reporters += other.n_reporters
        self.reports_absorbed += other.reports_absorbed
        if other.first_report_at is not None:
            self.first_report_at = (
                other.first_report_at
                if self.first_report_at is None
                else min(self.first_report_at, other.first_report_at)
            )
        if other.last_report_at is not None:
            self.last_report_at = (
                other.last_report_at
                if self.last_report_at is None
                else max(self.last_report_at, other.last_report_at)
            )
        self.pulls_served += other.pulls_served
        self.batches_built += other.batches_built
        self.sync_rows += other.sync_rows
        self.sync_bytes += other.sync_bytes
        self.server_entries += other.server_entries
        self.convergence_by_as.update(other.convergence_by_as)
        self.pending_by_as.update(other.pending_by_as)
        for plane, count in other.reporters_by_plane.items():
            self.reporters_by_plane[plane] = (
                self.reporters_by_plane.get(plane, 0) + count
            )
        for plane, count in other.reports_by_plane.items():
            self.reports_by_plane[plane] = (
                self.reports_by_plane.get(plane, 0) + count
            )
        for plane, by_as in other.convergence_by_plane.items():
            self.convergence_by_plane.setdefault(plane, {}).update(by_as)
        for plane, events in other.curve_by_plane.items():
            self.curve_by_plane.setdefault(plane, []).extend(events)
        return self

    def summary(self) -> Dict[str, float]:
        return {
            "n_clients": self.n_clients,
            "n_ases": self.n_ases,
            "n_reporters": self.n_reporters,
            "reports_absorbed": self.reports_absorbed,
            "report_window_sim_s": self.report_window,
            "pulls_served": self.pulls_served,
            "batches_built": self.batches_built,
            "sync_rows": self.sync_rows,
            "sync_bytes": self.sync_bytes,
            "bytes_per_client": self.bytes_per_client,
            "rows_per_client": self.rows_per_client,
            "mean_convergence_sim_s": self.mean_convergence,
            "max_convergence_sim_s": self.max_convergence,
            "pending_at_horizon": self.pending_at_horizon,
            "server_entries": self.server_entries,
        }

    def plane_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-plane scalars: reporter/report counts and convergence of
        each plane's own target (mean over converged ASes, count of
        converged ASes).  Empty until a wave ran."""
        out: Dict[str, Dict[str, float]] = {}
        for plane in sorted(
            self.reporters_by_plane.keys() | self.convergence_by_plane.keys()
        ):
            by_as = self.convergence_by_plane.get(plane, {})
            converged = [v for v in by_as.values() if v >= 0.0]
            out[plane] = {
                "reporters": self.reporters_by_plane.get(plane, 0),
                "reports": self.reports_by_plane.get(plane, 0),
                "converged_ases": len(converged),
                "mean_convergence_sim_s": (
                    sum(converged) / len(converged)
                    if converged
                    else float("nan")
                ),
            }
        return out


class ClientCohort:
    """A population of lightweight clients spread over per-AS shards."""

    #: The per-AS population type; a subclass that keeps other per-client
    #: state swaps in its own.
    _shard_type = CohortAs

    def __init__(
        self,
        server: ServerDB,
        asns: List[int],
        clients_per_as: int,
        seed: int,
        pull_interval: float = 600.0,
        tick: Optional[float] = None,
        planes: Optional[Sequence] = None,
    ):
        if clients_per_as < 1:
            raise ValueError("clients_per_as must be >= 1")
        # A zero tick would stall the engine at one instant forever.
        if not pull_interval > 0.0:
            raise ValueError(f"pull_interval must be > 0: {pull_interval!r}")
        if tick is None:
            tick = pull_interval / 20.0
        if not tick > 0.0:
            raise ValueError(f"tick must be > 0: {tick!r}")
        self.server = server
        self.seed = seed
        # The measurement-plane mix: MeasurementPlane instances or spec
        # mappings (resolved via the planes registry).  None is the
        # degenerate single-plane mix — one CSawBrowserPlane at 1%,
        # bit-identical to the pre-plane cohort.
        from ..planes import build_plane
        from ..planes.base import MeasurementPlane
        from ..planes.csaw import CSawBrowserPlane

        if planes is None:
            self.planes: List[MeasurementPlane] = [
                CSawBrowserPlane(fraction=0.01)
            ]
        else:
            self.planes = [
                plane
                if isinstance(plane, MeasurementPlane)
                else build_plane(plane)
                for plane in planes
            ]
        if not self.planes:
            raise ValueError("planes must not be empty")
        names = [plane.profile.name for plane in self.planes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate plane names: {names!r}")
        self.pull_interval = pull_interval
        # Service granularity: how often each AS's population is swept
        # for due pulls/reports.  Coarser ticks batch more clients per
        # sweep (and per shared SyncBatch); finer ticks tighten the
        # convergence measurement.  Defaults to pull_interval / 20.
        self.tick = tick
        # One seeded stream per AS, derived from the AS identity — the AS
        # space can then be partitioned across worker processes without
        # changing any AS's draws (worker-count invariance).
        self.shards: List[CohortAs] = [
            self._shard_type(
                asn,
                clients_per_as,
                pull_interval,
                random.Random(derive_seed(seed, "fleet-as", asn)),
            )
            for asn in asns
        ]
        self.metrics = FleetMetrics(
            n_clients=clients_per_as * len(asns), n_ases=len(asns)
        )

    # -- wave scheduling -------------------------------------------------------

    def start_wave(
        self,
        now: float,
        urls_per_as: int,
        stagger: float = 0.0,
    ) -> None:
        """A censor starts blocking ``urls_per_as`` URLs in every AS.

        Each plane's reporter subset of the AS's population notices per
        the plane's detection model and posts its measurements through
        the ordinary report path (registering a real UUID with the
        server, so voting and reputation see the traffic).

        A shared-list plane's uploaded :class:`ReportItem` list is
        identical for every reporter of an AS, so it is built once per
        shard per wave (with the wave onset as the measurement time
        ``T_m``; each reporter's individual detection time still shows
        as its post time ``T_p``) instead of being rebuilt per reporter
        in the service loop.  Per-reporter planes (Encore's independent
        misclassification draws) thin the shared list once per reporter
        up front.

        ``stagger > 0`` rolls the wave: each AS's onset is drawn
        uniformly from ``[now, now + stagger)`` on a per-AS derived
        stream (worker-count invariant; the zero default leaves every
        draw untouched).

        RNG discipline: plane 0 draws from the shard's own stream in
        the historical order (sample, then delays, then any item draws),
        so the single-plane cohort is draw-for-draw the pre-plane one;
        every further plane draws from its own derived stream, so adding
        planes never perturbs plane 0's subpopulation.
        """
        server = self.server
        metrics = self.metrics
        for st in self.shards:
            onset = now
            if stagger > 0.0:
                onset = now + random.Random(
                    derive_seed(self.seed, "fleet-wave", st.asn)
                ).uniform(0.0, stagger)
            st.wave_urls = [
                f"http://wave-as{st.asn}-{k}.example.com/"
                for k in range(urls_per_as)
            ]
            st.wave_started_at = onset
            st.groups = []
            for p_ix, plane in enumerate(self.planes):
                rng = (
                    st.rng
                    if p_ix == 0
                    else random.Random(
                        derive_seed(
                            self.seed, "fleet-plane", plane.profile.name,
                            st.asn,
                        )
                    )
                )
                group = _PlaneGroup(plane, st.n)
                n_reporters = plane.reporter_count(st.n)
                group.reporter_ix = array(
                    "l", rng.sample(range(st.n), n_reporters)
                )
                group.uuids = plane.register_reporters(
                    server, onset, n_reporters
                )
                group.report_at = array(
                    "d",
                    (
                        onset + delay
                        for delay in plane.detection_delays(n_reporters, rng)
                    ),
                )
                group.report_order = sorted(
                    range(n_reporters), key=group.report_at.__getitem__
                )
                group.items = plane.wave_items(
                    st.wave_urls, st.asn, onset, rng
                )
                if plane.per_reporter_items:
                    group.items_by_r = [
                        plane.reporter_items(group.items, rng)
                        for _ in range(n_reporters)
                    ]
                    group.pending = array(
                        "l", (len(items) for items in group.items_by_r)
                    )
                else:
                    group.pending = array(
                        "l", [len(group.items)]
                    ) * n_reporters
                st.groups.append(group)
                metrics.n_reporters += n_reporters
                metrics.reporters_by_plane[group.name] = (
                    metrics.reporters_by_plane.get(group.name, 0)
                    + n_reporters
                )

    # -- per-tick service ------------------------------------------------------

    def _post_due_reports(self, st: CohortAs, now: float) -> None:
        """Post every report due by ``now``, plane group by plane group.

        A group's due reporters are a prefix of its ``report_order`` from
        ``report_ptr``, and they go to the server as one
        :meth:`~repro.core.globaldb.ServerDB.post_updates` call: the
        shared list once per reporter, or each reporter's own list.
        """
        server = self.server
        metrics = self.metrics
        by_plane = metrics.reports_by_plane
        for group in st.groups:
            order = group.report_order
            report_at = group.report_at
            start = end = group.report_ptr
            while end < len(order) and report_at[order[end]] <= now:
                end += 1
            if end > start:
                due = order[start:end]
                uuids = group.uuids
                items_by_r = group.items_by_r
                if items_by_r is None:
                    # One shared list per shard per wave.  Even an empty
                    # one moves the report window.
                    items = group.items
                    uploads = [(uuids[r], items) for r in due]
                    posted = True
                else:
                    # A vantage that observed nothing (e.g. every
                    # blockpage misclassified) posts nothing, and a tick
                    # of such vantages makes no server call and leaves
                    # the report window alone.
                    uploads = [
                        (uuids[r], items_by_r[r]) for r in due if items_by_r[r]
                    ]
                    posted = bool(uploads)
                    # Nothing reads a reporter's list after its post:
                    # free it rather than hold it for the whole run.
                    for r in due:
                        items_by_r[r] = ()
                if posted:
                    accepted = server.post_updates(uploads, now)
                    metrics.reports_absorbed += accepted
                    by_plane[group.name] = (
                        by_plane.get(group.name, 0) + accepted
                    )
                    if metrics.first_report_at is None:
                        metrics.first_report_at = now
                    metrics.last_report_at = now
                pending = group.pending
                for r in due:
                    pending[r] = 0
                group.report_ptr = end
                if end == len(order):
                    # This plane's last reporter posted: the shard
                    # version now is the plane's convergence target, and
                    # the clients still below it are its unconverged.
                    target = server.version_for_as(st.asn)
                    group.target_version = target
                    group.unconverged = sum(
                        count for count, version in st.runs
                        if version < target
                    )

    def _service_pulls(self, st: CohortAs, now: float) -> None:
        """Serve every client whose periodic pull came due, run by run.

        The due clients are the first ``st.due(now)`` of ``st.runs``.
        A run's clients share a since-version, so they share one batch
        (built once per distinct since-version this sweep) and the same
        rows, bytes and new version: a run costs O(1) however many
        clients it holds.  Served clients rejoin the back of the queue.
        """
        served = st.due(now)
        if not served:
            return
        server, metrics = self.server, self.metrics
        n = st.n
        runs = st.runs
        asn = st.asn
        sync_log = st.sync_log
        batch_cache: Dict[int, object] = {}
        lo = st.pull_ptr % n
        left = served
        while left:
            run = runs[0]
            count, since = run
            if count > left:
                run[0] = count - left
                count = left
            else:
                runs.popleft()
            left -= count
            batch = batch_cache.get(since)
            if batch is None:
                batch = server.sync_batch_for_as(
                    asn, now,
                    since_version=None if since < 0 else since,
                )
                batch_cache[since] = batch
                metrics.batches_built += 1
            version = batch.version
            rows = batch.transferred
            if rows:
                wire = batch.wire_bytes
                sync_log.extend((lo, count, rows, wire))
                metrics.sync_rows += rows * count
                metrics.sync_bytes += wire * count
            else:
                metrics.sync_bytes += SYNC_HEADER_BYTES * count
            for group in st.groups:
                gt = group.target_version
                if (
                    gt is not None
                    and group.unconverged
                    and since < gt <= version
                ):
                    group.unconverged -= count
            # Merging into the back run is safe even when that run is
            # still due this sweep: ``left`` never reaches past the
            # clients ahead of the ones pushed here.
            if runs and runs[-1][1] == version:
                runs[-1][0] += count
            else:
                runs.append([count, version])
            lo = (lo + count) % n
        st.pulls += served
        metrics.pulls_served += served
        st.pull_ptr += served

    def service(self, now: float) -> None:
        """One sweep over every AS: due reports, then due pulls, then
        end-of-tick per-plane convergence bookkeeping (tick-granular, so
        it does not depend on the order clients were served in)."""
        for st in self.shards:
            groups = st.groups
            if groups:
                for group in groups:
                    if group.report_ptr < len(group.report_order):
                        self._post_due_reports(st, now)
                        break
            self._service_pulls(st, now)
            if groups:
                n = st.n
                for group in groups:
                    converged = n - group.unconverged
                    if converged != group.last_converged:
                        group.curve.append((now, converged))
                        group.last_converged = converged
                        if (
                            group.unconverged == 0
                            and group.converged_at is None
                        ):
                            group.converged_at = now

    # -- engine driver ---------------------------------------------------------

    def run(self, env: Environment, until: float):
        """Process: periodic service sweeps until ``until`` sim-seconds."""
        while env.now < until:
            yield env.timeout(self.tick)
            self.service(env.now)

    def finalize(self) -> FleetMetrics:
        """Compute the fleet-level metrics after a run: an AS converged
        once all its planes had, at the latest plane's time (-1.0 =
        did not converge)."""
        metrics = self.metrics
        for st in self.shards:
            started = st.wave_started_at
            times = [group.converged_at for group in st.groups]
            metrics.convergence_by_as[st.asn] = (
                max(times) - started
                if started is not None and None not in times
                else -1.0
            )
            metrics.pending_by_as[st.asn] = sum(
                sum(group.pending) for group in st.groups
            )
            if started is None:
                continue
            for group in st.groups:
                by_as = metrics.convergence_by_plane.setdefault(
                    group.name, {}
                )
                by_as[st.asn] = (
                    group.converged_at - started
                    if group.converged_at is not None
                    else -1.0
                )
                if group.curve:
                    events = metrics.curve_by_plane.setdefault(
                        group.name, []
                    )
                    prev = 0
                    for at, converged in group.curve:
                        events.append((at - started, converged - prev))
                        prev = converged
        metrics.server_entries = self.server.entry_count
        return metrics


# -- top-level storm entry points (picklable for the process runner) -----------


def run_fleet_storm(
    seed: int = 0,
    n_ases: int = 50,
    clients_per_as: int = 2000,
    urls_per_as: int = 20,
    pull_interval: float = 600.0,
    wave_at: float = 300.0,
    horizon: Optional[float] = None,
    asn_base: int = 40000,
    planes: Optional[Sequence] = None,
    wave_stagger: float = 0.0,
    server: Optional[ServerDB] = None,
) -> FleetMetrics:
    """One fleet storm: steady pulls, a blocking wave, convergence.

    Builds a :class:`ServerDB` (or drives a caller-supplied one, so the
    analysis layer can inspect post-storm voting state), a cohort of
    ``n_ases * clients_per_as`` clients, starts a blocking wave at
    ``wave_at`` (rolled over ``wave_stagger`` seconds when nonzero),
    and runs the engine until every AS had time to converge
    (``horizon`` defaults to the wave plus two pull intervals).
    ``planes`` is the measurement-plane mix — plane instances or spec
    mappings; None is the single C-Saw plane at 1%.
    Returns :class:`FleetMetrics`.
    """
    if server is None:
        server = ServerDB(entry_ttl=None)
    env = Environment()
    cohort = ClientCohort(
        server,
        asns=[asn_base + i for i in range(n_ases)],
        clients_per_as=clients_per_as,
        seed=seed,
        pull_interval=pull_interval,
        planes=planes,
    )

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
    return cohort.finalize()


def run_fleet_storm_sharded(
    seed: int = 0,
    n_ases: int = 50,
    workers: Optional[int] = None,
    asn_base: int = 40000,
    **kwargs,
) -> FleetMetrics:
    """Fan the AS space across processes with :mod:`repro.runner`.

    Per-AS shards are independent, so partitioning by AS is exact: each
    worker simulates its slice against its own :class:`ServerDB` and the
    results merge by summation/concatenation.  Deterministic for any
    worker count — each AS's random stream derives from the AS identity,
    not from the partitioning or scheduling.
    """
    from ..runner import resolve_workers

    if n_ases < 1:
        # Nothing to partition: the single-process storm's empty metrics.
        return run_fleet_storm(
            seed=seed, n_ases=n_ases, asn_base=asn_base, **kwargs
        )
    n_parts = min(resolve_workers(n_ases, workers), n_ases)
    bounds = [
        (part * n_ases) // n_parts for part in range(n_parts + 1)
    ]
    specs = [
        TrialSpec(
            name=f"fleet[{part}]",
            fn=run_fleet_storm,
            kwargs={
                "seed": seed,
                "n_ases": bounds[part + 1] - bounds[part],
                "asn_base": asn_base + bounds[part],
                **kwargs,
            },
        )
        for part in range(n_parts)
        if bounds[part + 1] > bounds[part]
    ]
    results = run_trials(specs, workers=n_parts)
    merged: Optional[FleetMetrics] = None
    for value in merge_values(results).values():
        merged = value if merged is None else merged.merge(value)
    assert merged is not None
    return merged
