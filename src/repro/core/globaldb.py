"""global_DB + server_DB: the crowdsourced measurement store (§4.2, §5).

The server assigns each registering client a UUID (a cryptographic hash of
the current server time — no PII, no IP addresses are ever stored),
accepts periodic reports of *blocked* URLs, maintains the voting ledger,
and serves per-AS blocked lists that clients pull periodically.

Registration is gated by a CAPTCHA (modeled as a solve-time cost paid by
the caller plus a pass/fail flag), rate-limiting mass creation of fake
identities.

Storage is sharded per AS: every query a client issues is scoped to its
own AS (§5's pull protocol), so ``blocked_for_as`` touches only that AS's
rows.  Each shard carries a monotone version counter and a bounded
changed-URL log; :meth:`ServerDB.sync_for_as` serves an incremental diff
against a client-supplied ``since_version``, falling back to a full
snapshot on first pull or when the log has been truncated past the
client's version.  TTL expiry is applied at write/pull time through a
lazy-deletion heap (expired rows are *evicted* and logged as removals),
never by filtering every row on read.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..urlkit import normalize_url
from .records import BlockType, decode_stages, encode_stages
from .voting import DEFAULT_PLANE, VoteStats, VotingLedger

__all__ = [
    "ReportItem",
    "GlobalEntry",
    "RegistrationError",
    "ServerDB",
    "SyncResult",
    "SyncBatch",
    "SYNC_HEADER_BYTES",
]

#: Fixed per-pull wire overhead in the sync cost model: asn, version,
#: and flags.  An empty delta transfers exactly this many bytes — the
#: fleet layer charges the same constant for its empty pulls, so the
#: two accountings cannot drift.
SYNC_HEADER_BYTES = 24


class RegistrationError(Exception):
    """Registration rejected (failed CAPTCHA or unknown client)."""


@dataclass(frozen=True)
class ReportItem:
    """One blocked-URL measurement as uploaded by a client.

    ``plane`` is the measurement plane the report came through (see
    :mod:`repro.planes`): the provenance tag the server threads into
    per-plane vote statistics and entry bookkeeping.
    """

    url: str
    asn: int
    stages: Tuple[BlockType, ...]
    measured_at: float  # T_m
    plane: str = DEFAULT_PLANE


@dataclass
class GlobalEntry:
    """One (URL, AS) row of the global database (Tables 3 + 4 fields)."""

    url: str
    asn: int
    stages: List[BlockType]
    measured_at: float  # T_m of the freshest report
    posted_at: float  # T_p
    last_uuid: str  # reporter of the freshest update
    first_measured_at: float = 0.0  # when the blocking was first observed
    # Plane of the freshest report.  Excluded from equality so columnar
    # batches (which do not carry the tag on the wire) decode to entries
    # equal to the row-path spec's.
    last_plane: str = field(default=DEFAULT_PLANE, compare=False)

    @property
    def key(self) -> Tuple[str, int]:
        return (self.url, self.asn)


@dataclass(frozen=True)
class SyncResult:
    """What one pull transfers: a full snapshot or an incremental diff.

    ``entries`` holds every entry the client must (re)store; ``removed``
    the URLs it must drop (always empty on a full sync — the client
    replaces its view wholesale).  ``version`` is the shard version the
    client should present as ``since_version`` on its next pull.
    """

    asn: int
    version: int
    full: bool
    entries: List[GlobalEntry] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)

    @property
    def transferred(self) -> int:
        """Rows on the wire — what delta sync is minimizing."""
        return len(self.entries) + len(self.removed)

    @property
    def wire_bytes(self) -> int:
        """Estimated bytes on the wire (same cost model as SyncBatch)."""
        total = SYNC_HEADER_BYTES
        for entry in self.entries:
            total += (
                len(entry.url) + 1 + 24  # three packed floats
                + 2  # stage code
                + len(entry.last_uuid)
            )
        for url in self.removed:
            total += len(url) + 1
        return total


@dataclass(frozen=True)
class SyncBatch:
    """One pull in the columnar wire format: parallel per-field tuples.

    Same information as :class:`SyncResult` — the row path remains the
    executable spec and the two produce bit-identical client state —
    but entries travel as parallel columns (url key, packed stage code,
    timestamps, reporter id) instead of per-row objects.  One batch is
    built in a single pass over the shard and can be shared by every
    client of the AS at the same ``since_version``, which is what the
    fleet cohort exploits.
    """

    asn: int
    version: int
    full: bool
    urls: Tuple[str, ...] = ()
    stage_codes: Tuple[int, ...] = ()  # encode_stages() nibble packs
    measured_at: Tuple[float, ...] = ()
    posted_at: Tuple[float, ...] = ()
    first_measured_at: Tuple[float, ...] = ()
    reporter_uuids: Tuple[str, ...] = ()
    removed: Tuple[str, ...] = ()

    @property
    def transferred(self) -> int:
        return len(self.urls) + len(self.removed)

    @property
    def wire_bytes(self) -> int:
        """Estimated bytes on the wire: url/uuid strings plus packed
        numeric columns (8 bytes per float, 2 per stage code)."""
        total = SYNC_HEADER_BYTES
        total += sum(len(url) + 1 for url in self.urls)
        total += sum(len(uuid) for uuid in self.reporter_uuids)
        total += (3 * 8 + 2) * len(self.urls)
        total += sum(len(url) + 1 for url in self.removed)
        return total

    def entries(self) -> List[GlobalEntry]:
        """Materialize per-row objects (decode side of the spec tests)."""
        return [
            GlobalEntry(
                url=url,
                asn=self.asn,
                stages=decode_stages(code),
                measured_at=measured,
                posted_at=posted,
                last_uuid=uuid,
                first_measured_at=first,
            )
            for url, code, measured, posted, first, uuid in zip(
                self.urls,
                self.stage_codes,
                self.measured_at,
                self.posted_at,
                self.first_measured_at,
                self.reporter_uuids,
            )
        ]


class _AsShard:
    """One AS's slice of the global database.

    ``version`` increments on every visible change to the shard — entry
    added, refreshed, evicted, or its vote statistics moved — and ``log``
    records ``(version, url)`` per change.  The log is bounded: when it
    outgrows a small multiple of the live table, old rows are forgotten
    and ``floor`` rises; diffs are only answerable for ``since_version >=
    floor`` (older clients get a full snapshot).  Changes are recorded
    in *runs* (:meth:`mark_changed`): a write marks every URL it changed
    between two entry-count changes as one step, with the same versions,
    log and floor as marking them one at a time.  ``expiry`` is a
    lazy-deletion min-heap of ``(posted_at, url)`` rows used for
    write-time TTL eviction: refreshed entries leave stale heap rows
    behind, skipped when popped because the entry's current ``posted_at``
    no longer matches.
    """

    __slots__ = ("entries", "version", "floor", "log", "expiry", "batch_cache")

    def __init__(self) -> None:
        self.entries: Dict[str, GlobalEntry] = {}
        self.version = 0
        self.floor = 0
        self.log: Deque[Tuple[int, str]] = deque()
        self.expiry: List[Tuple[float, str]] = []
        # Built SyncBatches keyed by (since_version, min_reporters,
        # min_votes), valid for the *current* shard version only: every
        # mutation funnels through mark_changed, which clears it.  A
        # fleet sweeping thousands of clients between server changes
        # pays batch construction once per distinct since-version.
        # Key: (since_version, min_reporters, min_votes) plus sorted
        # plane-weight items when the pull supplied a weighted criterion.
        self.batch_cache: Dict[Tuple, "SyncBatch"] = {}

    def mark_changed(self, urls: Sequence[str]) -> None:
        """Record one run of changes: ``urls`` in change order, one
        version each (a URL may repeat).

        The run is one step — the version advances by ``len(urls)``, the
        log grows by one ``extend``, the batch cache is cleared once and
        the log trimmed once.  The log limit depends on the entry count,
        so this equals marking each URL alone only while that count holds
        still: callers end a run before inserting or deleting an entry.
        Within a run the limit is constant, and one trim to it keeps the
        same suffix of the log, and the same ``floor``, as a trim after
        every append.  An empty run changes nothing.
        """
        if not urls:
            return
        start = self.version
        self.version = start + len(urls)
        if self.batch_cache:
            self.batch_cache.clear()
        log = self.log
        log.extend(zip(range(start + 1, self.version + 1), urls))
        excess = len(log) - max(256, 4 * len(self.entries))
        if excess > 0:
            for _ in range(excess - 1):
                log.popleft()
            self.floor = log.popleft()[0]

    def touched_since(self, since_version: int) -> Set[str]:
        """URLs changed after ``since_version`` (caller checked >= floor)."""
        touched: Set[str] = set()
        for version, url in reversed(self.log):
            if version <= since_version:
                break
            touched.add(url)
        return touched


class ServerDB:
    """The measurement collection service (server_DB + global_DB)."""

    def __init__(self, entry_ttl: Optional[float] = 7 * 24 * 3600.0):
        self.entry_ttl = entry_ttl
        self._uuid_counter = itertools.count(1)
        self._clients: Dict[str, float] = {}  # uuid -> registered_at
        self._shards: Dict[int, _AsShard] = {}
        self.voting = VotingLedger()
        self.update_count = 0  # total accepted updates (Table 7 row)
        self.rejected_registrations = 0
        self.full_syncs_served = 0
        self.delta_syncs_served = 0
        # Measurement-plane provenance (DESIGN.md §13): identities and
        # accepted updates per plane.  Single-plane operation keeps one
        # bucket, DEFAULT_PLANE.
        self.clients_by_plane: Dict[str, int] = {}
        self.reports_by_plane: Dict[str, int] = {}

    def _shard(self, asn: int) -> _AsShard:
        shard = self._shards.get(asn)
        if shard is None:
            shard = self._shards[asn] = _AsShard()
        return shard

    # -- registration ---------------------------------------------------------

    def register(
        self,
        now: float,
        captcha_passed: bool = True,
        plane: str = DEFAULT_PLANE,
        captcha_gated: bool = True,
    ) -> str:
        """Assign a UUID: a cryptographic hash of the current server time.

        ``plane`` records which measurement plane the identity reports
        through; non-default planes flip the voting ledger into per-plane
        tracking.  ``captcha_gated=False`` models planes whose reporters
        are unwitting page visitors (Encore) — no CAPTCHA challenge is
        issued, so ``captcha_passed`` is not consulted and mass identity
        creation is *not* rate-limited (exactly the sybil exposure the
        per-plane vote weighting is there to bound).
        """
        if captcha_gated and not captcha_passed:
            self.rejected_registrations += 1
            raise RegistrationError("CAPTCHA failed")
        token = f"{now:.9f}/{next(self._uuid_counter)}"
        uuid = hashlib.sha256(token.encode()).hexdigest()[:32]
        self._clients[uuid] = now
        self.clients_by_plane[plane] = self.clients_by_plane.get(plane, 0) + 1
        if plane != DEFAULT_PLANE:
            self.voting.set_client_plane(uuid, plane)
        return uuid

    def is_registered(self, uuid: str) -> bool:
        return uuid in self._clients

    @property
    def client_count(self) -> int:
        return len(self._clients)

    # -- reporting --------------------------------------------------------------

    def post_update(self, uuid: str, reports: List[ReportItem], now: float) -> int:
        """Accept a client's batch of blocked-URL reports.

        Returns the number of accepted items.  The client's entire current
        vouch set is extended by these entries (votes are renormalized by
        the ledger).

        Each item is one change to its shard, but the changes are marked
        in runs (:meth:`_AsShard.mark_changed`): a shard's changed URLs
        collect in upload order and are marked together, ending a run
        just before an insert moves the shard's entry count.  Versions,
        log and floor come out as if every item were marked alone.
        """
        if uuid not in self._clients:
            raise RegistrationError(f"unknown client: {uuid!r}")
        if not reports:
            return 0
        keys: List[Tuple[str, int]] = []
        # asn -> (shard, URLs changed since the shard's last run ended)
        runs: Dict[int, Tuple[_AsShard, List[str]]] = {}
        by_plane = self.reports_by_plane
        track_expiry = self.entry_ttl is not None
        heappush = heapq.heappush
        for item in reports:
            url = normalize_url(item.url)
            asn = item.asn
            plane = item.plane
            keys.append((url, asn))
            run = runs.get(asn)
            if run is None:
                run = runs[asn] = (self._shard(asn), [])
            shard, pending = run
            entries = shard.entries
            entry = entries.get(url)
            if entry is None:
                # The insert raises the log limit: mark the run so far
                # under the limit it was made under.
                if pending:
                    shard.mark_changed(pending)
                    pending.clear()
                entries[url] = GlobalEntry(
                    url=url,
                    asn=asn,
                    stages=list(item.stages),
                    measured_at=item.measured_at,
                    posted_at=now,
                    last_uuid=uuid,
                    first_measured_at=item.measured_at,
                    last_plane=plane,
                )
            else:
                entry.posted_at = now
                if item.measured_at > entry.measured_at:
                    entry.measured_at = item.measured_at
                entry.last_uuid = uuid
                entry.last_plane = plane
                stages = entry.stages
                for stage in item.stages:
                    if stage not in stages:
                        stages.append(stage)
            pending.append(url)
            if track_expiry:
                heappush(shard.expiry, (now, url))
            by_plane[plane] = by_plane.get(plane, 0) + 1
        for shard, pending in runs.values():
            shard.mark_changed(pending)
        accepted = len(keys)
        self.update_count += accepted
        affected = self.voting.add_client_reports(uuid, keys)
        self._mark_vote_changes(affected.difference(keys))
        # Write-time eviction: stale rows leave with this write.
        for shard, _ in runs.values():
            self._evict_expired(shard, now)
        return accepted

    def post_dissent(self, uuid: str, url: str, asn: int, now: float) -> bool:
        """A client reports that a listed URL is *not* blocked for it.

        Validation by individual clients (§1, §5): the dissenting client's
        vouch for the entry is withdrawn; when no reporter is left, the
        entry disappears.  Dissent only ever removes the dissenting
        client's own vote — a malicious dissenter cannot erase an entry
        the honest crowd still vouches for.

        Returns True when the entry was dropped entirely.
        """
        if uuid not in self._clients:
            raise RegistrationError(f"unknown client: {uuid!r}")
        url = normalize_url(url)
        key = (url, asn)
        current = self.voting.reports_of(uuid)
        if key in current:
            current.discard(key)
            affected = self.voting.set_client_reports(uuid, list(current))
            self._mark_vote_changes(affected)
        if not self.voting.has_reporters(url, asn):
            shard = self._shards.get(asn)
            if shard is not None and shard.entries.pop(url, None) is not None:
                shard.mark_changed((url,))
            return True
        return False

    def _mark_vote_changes(self, keys: Iterable[Tuple[str, int]]) -> None:
        """Bump shard versions for entries whose vote statistics moved.

        A client growing its report list dilutes its vote on *every* key
        it vouches for, which can flip entries across a consumer's
        ``min_votes`` threshold — those entries must surface in the next
        delta even though nothing re-posted them.  Nothing is inserted or
        deleted here, so each shard's live keys, in ``keys`` order, are
        marked as one run.
        """
        runs: Dict[int, List[str]] = {}
        for url, asn in keys:
            run = runs.get(asn)
            if run is None:
                runs[asn] = [url]
            else:
                run.append(url)
        shards = self._shards
        for asn, urls in runs.items():
            shard = shards.get(asn)
            if shard is not None:
                entries = shard.entries
                shard.mark_changed([url for url in urls if url in entries])

    # -- TTL eviction -------------------------------------------------------------

    def _evict_expired(self, shard: _AsShard, now: float) -> int:
        """Pop expired rows off the shard's expiry heap (lazy deletion)."""
        if self.entry_ttl is None:
            return 0
        horizon = now - self.entry_ttl
        expiry = shard.expiry
        dropped = 0
        while expiry and expiry[0][0] < horizon:
            posted_at, url = heapq.heappop(expiry)
            entry = shard.entries.get(url)
            # Exact float compare is intentional: this is stored-value
            # identity (the heap row's key vs the entry's current field),
            # not arithmetic on two independently-computed times.
            if entry is None or entry.posted_at != posted_at:  # csaw-analyze: disable=CSL006
                continue  # refreshed since this heap row, or already gone
            del shard.entries[url]
            shard.mark_changed((url,))
            dropped += 1
        return dropped

    # -- queries ------------------------------------------------------------------

    def _stats_fn(self, plane_weights: Optional[Dict[str, float]]):
        """The (url, asn) -> VoteStats the confidence criterion reads:
        plain aggregate stats, or fidelity-weighted per-plane sums when
        the consumer supplied ``plane_weights`` (DESIGN.md §13)."""
        if plane_weights is None:
            return self.voting.stats
        weighted = self.voting.weighted_stats

        def stats(url: str, asn: int) -> VoteStats:
            return weighted(url, asn, plane_weights)

        return stats

    def blocked_for_as(
        self,
        asn: int,
        now: float,
        min_reporters: int = 1,
        min_votes: float = 0.0,
        plane_weights: Optional[Dict[str, float]] = None,
    ) -> List[GlobalEntry]:
        """The blocked list a client on ``asn`` downloads.

        Entries failing the confidence criterion — too few reporters or
        too little vote mass — are withheld, bounding what false
        reporters can inject.  ``plane_weights`` switches the criterion
        to fidelity-weighted per-plane statistics (a coarse plane's
        reporters count at their weight); ``None`` is the unweighted
        single-plane criterion, untouched.  Only this AS's shard is
        touched; with the default (accept-all) criterion the pull is a
        straight copy of the shard, since every stored entry has at
        least one reporter by construction (posts add a vouch
        atomically, dissent/revocation drop orphaned entries).
        """
        shard = self._shards.get(asn)
        if shard is None:
            return []
        self._evict_expired(shard, now)
        if plane_weights is None and min_reporters <= 1 and min_votes <= 0.0:
            return list(shard.entries.values())
        stats = self._stats_fn(plane_weights)
        return [
            entry
            for entry in shard.entries.values()
            if stats(entry.url, asn).passes(min_reporters, min_votes)
        ]

    def sync_for_as(
        self,
        asn: int,
        now: float,
        since_version: Optional[int] = None,
        min_reporters: int = 1,
        min_votes: float = 0.0,
        plane_weights: Optional[Dict[str, float]] = None,
    ) -> SyncResult:
        """Serve one client pull, incrementally when possible.

        ``since_version=None`` (first pull), a version below the shard's
        log floor (log truncated), or a version from the future (stale
        client state, e.g. a server restart) all fall back to a full
        snapshot.  Otherwise only entries touched after ``since_version``
        travel: re-evaluated against the confidence criterion (weighted
        per plane when ``plane_weights`` is given), they land in
        ``entries`` (still listed) or ``removed`` (evicted, dissented
        away, or no longer passing the criterion).
        """
        shard = self._shards.get(asn)
        if shard is None:
            self.full_syncs_served += 1
            return SyncResult(asn=asn, version=0, full=True)
        self._evict_expired(shard, now)
        stale = (
            since_version is None
            or since_version < shard.floor
            or since_version > shard.version
        )
        if stale:
            self.full_syncs_served += 1
            return SyncResult(
                asn=asn,
                version=shard.version,
                full=True,
                entries=self.blocked_for_as(
                    asn,
                    now,
                    min_reporters=min_reporters,
                    min_votes=min_votes,
                    plane_weights=plane_weights,
                ),
            )
        self.delta_syncs_served += 1
        if since_version == shard.version:
            return SyncResult(asn=asn, version=shard.version, full=False)
        changed: List[GlobalEntry] = []
        removed: List[str] = []
        stats = self._stats_fn(plane_weights)
        for url in shard.touched_since(since_version):
            entry = shard.entries.get(url)
            if entry is not None and stats(url, asn).passes(
                min_reporters, min_votes
            ):
                changed.append(entry)
            else:
                removed.append(url)
        return SyncResult(
            asn=asn,
            version=shard.version,
            full=False,
            entries=changed,
            removed=removed,
        )

    def sync_batch_for_as(
        self,
        asn: int,
        now: float,
        since_version: Optional[int] = None,
        min_reporters: int = 1,
        min_votes: float = 0.0,
        plane_weights: Optional[Dict[str, float]] = None,
    ) -> SyncBatch:
        """:meth:`sync_for_as` in the columnar wire format.

        Serves the same full/delta decision and the same rows, but as
        parallel per-field tuples built in columnar passes over the
        shard — no intermediate per-row objects.  ``sync_for_as``
        remains the executable spec; the property tests assert both
        paths yield bit-identical client state.

        Built batches are cached on the shard keyed by ``(since,
        criterion)`` — the criterion including the sorted plane-weight
        items when a weighted pull asked for them — and invalidated by
        any shard change, so serving a whole cohort between changes
        constructs each distinct batch once (the serve counters still
        count every pull).
        """
        shard = self._shards.get(asn)
        if shard is None:
            self.full_syncs_served += 1
            return SyncBatch(asn=asn, version=0, full=True)
        self._evict_expired(shard, now)
        stale = (
            since_version is None
            or since_version < shard.floor
            or since_version > shard.version
        )
        if stale:
            self.full_syncs_served += 1
            since_key: Optional[int] = None
        else:
            self.delta_syncs_served += 1
            if since_version == shard.version:
                return SyncBatch(asn=asn, version=shard.version, full=False)
            since_key = since_version
        if plane_weights is None:
            key: Tuple = (since_key, min_reporters, min_votes)
        else:
            key = (
                since_key,
                min_reporters,
                min_votes,
                tuple(sorted(plane_weights.items())),
            )
        cache = shard.batch_cache
        batch = cache.get(key)
        if batch is None:
            batch = self._build_batch(
                shard, asn, since_key, min_reporters, min_votes, plane_weights
            )
            if len(cache) >= 128:  # bound stragglers between changes
                cache.clear()
            cache[key] = batch
        return batch

    def _build_batch(
        self,
        shard: _AsShard,
        asn: int,
        since_version: Optional[int],
        min_reporters: int,
        min_votes: float,
        plane_weights: Optional[Dict[str, float]] = None,
    ) -> SyncBatch:
        """Construct one columnar batch (cache-miss path).

        ``since_version`` is ``None`` for a full snapshot; otherwise a
        delta strictly between the shard's floor and current version.
        Columns are built by per-field passes over the selected rows —
        C-speed comprehensions instead of six appends per row.
        """
        stats = self._stats_fn(plane_weights)
        check_votes = (
            min_reporters > 1 or min_votes > 0.0 or plane_weights is not None
        )
        entries = shard.entries
        removed: List[str] = []
        if since_version is None:
            if check_votes:
                rows = [
                    entry
                    for url, entry in entries.items()
                    if stats(url, asn).passes(min_reporters, min_votes)
                ]
                urls = tuple(entry.url for entry in rows)
            else:
                rows = list(entries.values())
                urls = tuple(entries)
        else:
            rows = []
            for url in shard.touched_since(since_version):
                entry = entries.get(url)
                if entry is not None and stats(url, asn).passes(
                    min_reporters, min_votes
                ):
                    rows.append(entry)
                else:
                    removed.append(url)
            urls = tuple(entry.url for entry in rows)
        return SyncBatch(
            asn=asn,
            version=shard.version,
            full=since_version is None,
            urls=urls,
            stage_codes=tuple(encode_stages(entry.stages) for entry in rows),
            measured_at=tuple(entry.measured_at for entry in rows),
            posted_at=tuple(entry.posted_at for entry in rows),
            first_measured_at=tuple(
                entry.first_measured_at for entry in rows
            ),
            reporter_uuids=tuple(entry.last_uuid for entry in rows),
            removed=tuple(removed),
        )

    def version_for_as(self, asn: int) -> int:
        shard = self._shards.get(asn)
        return shard.version if shard is not None else 0

    def stats_for(self, url: str, asn: int) -> VoteStats:
        return self.voting.stats(normalize_url(url), asn)

    def plane_stats_for(self, url: str, asn: int) -> Dict[str, VoteStats]:
        """Per-plane provenance breakdown of one entry's vote statistics."""
        return self.voting.plane_stats(normalize_url(url), asn)

    def entry(self, url: str, asn: int) -> Optional[GlobalEntry]:
        shard = self._shards.get(asn)
        if shard is None:
            return None
        return shard.entries.get(normalize_url(url))

    def all_entries(self) -> List[GlobalEntry]:
        return [
            entry
            for shard in self._shards.values()
            for entry in shard.entries.values()
        ]

    @property
    def entry_count(self) -> int:
        return sum(len(shard.entries) for shard in self._shards.values())

    def shard_sizes(self) -> Dict[int, int]:
        """Per-AS row counts (capacity-planning view for the operators)."""
        return {asn: len(shard.entries) for asn, shard in self._shards.items()}

    def revoke(self, uuid: str) -> None:
        """Revoke a malicious client: drop identity and vote influence.

        Entries only the revoked client vouched for are evicted outright,
        so they surface in the removal half of every consumer's next
        delta; entries with surviving reporters just get their statistics
        bumped (their vote mass shrank).
        """
        self._clients.pop(uuid, None)
        affected = self.voting.revoke_client(uuid)
        for url, asn in affected:
            shard = self._shards.get(asn)
            if shard is None or url not in shard.entries:
                continue
            if not self.voting.has_reporters(url, asn):
                del shard.entries[url]
            shard.mark_changed((url,))
