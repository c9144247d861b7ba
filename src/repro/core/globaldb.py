"""global_DB + server_DB: the crowdsourced measurement store (§4.2, §5).

The server assigns each registering client a UUID (a cryptographic hash of
the current server time — no PII, no IP addresses are ever stored),
accepts periodic reports of *blocked* URLs, maintains the voting ledger,
and serves per-AS blocked lists that clients pull periodically.

Registration is gated by a CAPTCHA (modeled as a solve-time cost paid by
the caller plus a pass/fail flag), rate-limiting mass creation of fake
identities.  An identity registers under the measurement plane it
reports through, and that registration is its reports' only plane tag.

Storage is sharded per AS: every query a client issues is scoped to its
own AS (§5's pull protocol), so ``blocked_for_as`` touches only that AS's
rows.  Each shard carries a monotone version counter and a bounded
changed-URL log; :meth:`ServerDB.sync_batch_for_as` serves an incremental
diff against a client-supplied ``since_version``, falling back to a full
snapshot on first pull or when the log has been truncated past the
client's version.  TTL expiry is applied at write/pull time through a
lazy-deletion heap (expired rows are *evicted* and logged as removals),
never by filtering every row on read.

Every write goes through :meth:`ServerDB.post_updates`, which takes the
``(uuid, items)`` uploads made at one time in report order — a fleet's
reporters of one AS and plane due in the same tick — and equals one
:meth:`ServerDB.post_update` per upload, its one-upload case.  A fresh
client's upload of items the call already applied (a shared list again,
or an Encore-style thinning of it) is absorbed with its neighbours by
count, not item by item (DESIGN.md §16).
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import (
    Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)

from ..urlkit import normalize_url
from .records import BlockType, decode_stages, encode_stages
from .voting import DEFAULT_PLANE, Key, VoteStats, VotingLedger

__all__ = [
    "ReportItem",
    "GlobalEntry",
    "RegistrationError",
    "ServerDB",
    "SyncBatch",
    "PackedRow",
    "SYNC_HEADER_BYTES",
]

#: Fixed per-pull wire overhead in the sync cost model: asn, version,
#: and flags.  An empty delta transfers exactly this many bytes — the
#: fleet layer charges the same constant for its empty pulls, so the
#: two accountings cannot drift.
SYNC_HEADER_BYTES = 24

#: One pulled row as a client view stores it until it is read: stage
#: code, ``measured_at``, ``posted_at``, ``first_measured_at``, reporter
#: UUID and ASN (:meth:`SyncBatch.packed_rows`, :meth:`GlobalEntry.unpack`).
PackedRow = Tuple[int, float, float, float, str, int]


class RegistrationError(Exception):
    """Registration rejected (failed CAPTCHA or unknown client)."""


def _check_criterion(min_reporters: float, min_votes: float) -> None:
    """Reject a NaN confidence criterion.  NaN fails every comparison,
    so it would fail every entry in a per-entry check yet also skip the
    accept-all shortcut's ``> 0`` tests: the list and batch pulls would
    serve different entries."""
    if math.isnan(min_reporters):
        raise ValueError(f"min_reporters must not be NaN: {min_reporters!r}")
    if math.isnan(min_votes):
        raise ValueError(f"min_votes must not be NaN: {min_votes!r}")


@dataclass(frozen=True)
class ReportItem:
    """One blocked-URL measurement as uploaded by a client.

    It carries no plane: a report's plane is its reporter's, recorded
    once at registration (:meth:`ServerDB.register`) and read from the
    voting ledger (:meth:`~repro.core.voting.VotingLedger.plane_of`).
    """

    url: str
    asn: int
    stages: Tuple[BlockType, ...]
    measured_at: float  # T_m


#: One client's upload: its UUID and the items it posts.
Upload = Tuple[str, Sequence[ReportItem]]


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

    @property
    def key(self) -> Tuple[str, int]:
        return (self.url, self.asn)

    @classmethod
    def unpack(cls, url: str, row: PackedRow) -> "GlobalEntry":
        """The entry ``url``'s packed pulled row stands for."""
        code, measured, posted, first, uuid, asn = row
        return cls(
            url=url,
            asn=asn,
            stages=decode_stages(code),
            measured_at=measured,
            posted_at=posted,
            last_uuid=uuid,
            first_measured_at=first,
        )


@dataclass(frozen=True)
class SyncBatch:
    """One pull in the columnar wire format: parallel per-field tuples.

    ``urls`` lists every entry the client must (re)store, as parallel
    columns (url key, packed stage code, timestamps, reporter id) rather
    than per-row objects; ``removed`` lists the URLs it must drop
    (always empty on a full pull — the client replaces its view
    wholesale).  ``version`` is the shard version the client presents
    as ``since_version`` on its next pull.  One batch is built in a
    single pass over the shard and can be shared by every client of the
    AS at the same ``since_version``, which is what the fleet cohort
    exploits.
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

    @cached_property
    def wire_bytes(self) -> int:
        """Estimated bytes on the wire: the header, each listed or
        removed URL with a terminator byte, each reporter UUID, and the
        packed numeric columns (8 bytes per float, 2 per stage code).
        Computed once, on first read, by C-level sums: a shared batch is
        read on every pull it serves."""
        return (
            SYNC_HEADER_BYTES
            + sum(map(len, self.urls)) + (1 + 3 * 8 + 2) * len(self.urls)
            + sum(map(len, self.reporter_uuids))
            + sum(map(len, self.removed)) + len(self.removed)
        )

    def packed_rows(self) -> Iterator[Tuple[str, PackedRow]]:
        """``(url, packed row)`` per listed entry, in column order."""
        return zip(
            self.urls,
            zip(
                self.stage_codes,
                self.measured_at,
                self.posted_at,
                self.first_measured_at,
                self.reporter_uuids,
                itertools.repeat(self.asn),
            ),
        )


_url_of = itemgetter(0)  # of a key
_asn_of = itemgetter(1)


def _urls_by_shard(keys: Sequence[Key]) -> Dict[int, List[str]]:
    """Each AS's URLs among ``keys``, in key order, ASes in order of
    first appearance.  Keys of one AS — every fleet upload's — are split
    by C-level passes."""
    asns = dict.fromkeys(map(_asn_of, keys))
    if len(asns) == 1:
        (asn,) = asns
        return {asn: list(map(_url_of, keys))}
    runs: Dict[int, List[str]] = {asn: [] for asn in asns}
    for url, asn in keys:
        runs[asn].append(url)
    return runs


#: A run of a block of absorbed uploads: the keys of one list object,
#: and the UUIDs that posted it in turn.
_Run = Tuple[List[Key], List[str]]


class _AsShard:
    """One AS's slice of the global database.

    ``version`` increments on every visible change to the shard — entry
    added, refreshed, evicted, or its vote statistics moved — and ``log``
    holds the URL of each change, oldest first.  The log is bounded: when
    it outgrows a small multiple of the live table, old rows are forgotten
    and ``floor`` rises; diffs are only answerable for ``since_version >=
    floor`` (older clients get a full snapshot).  Log versions are
    contiguous, so a row's version follows from its position (the row
    ``i`` places from the end has version ``version - i``) and ``floor ==
    version - len(log)``.  Changes are recorded
    in *runs* (:meth:`mark_changed`): a write marks every URL it changed
    between two entry-count changes as one step, and a block of absorbed
    uploads marks one run per shard, with the same versions, log and
    floor as marking them one at a time.  ``expiry`` is a
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
        self.log: Deque[str] = deque()
        self.expiry: List[Tuple[float, str]] = []
        # Built SyncBatches keyed by (since_version, min_reporters,
        # min_votes), valid for the *current* shard version only: every
        # mutation funnels through mark_changed, which clears it.  A
        # fleet sweeping thousands of clients between server changes
        # pays batch construction once per distinct since-version.
        self.batch_cache: Dict[Tuple, "SyncBatch"] = {}

    def mark_changed(self, urls: Sequence[str]) -> None:
        """Record one run of changes: ``urls`` in change order, one
        version each (a URL may repeat).

        The run is one step — the version advances by ``len(urls)``, the
        batch cache is cleared once and the log trimmed once.  The log
        limit depends on the entry count, so this equals marking each URL
        alone only while that count holds still: callers end a run before
        inserting or deleting an entry.  Within a run the limit is
        constant, and one trim to it keeps the same suffix of the log, and
        the same ``floor``, as a trim after every append.  Log versions
        are contiguous, so ``floor == version - len(log)`` always holds; a
        run at least as long as the limit replaces the log with its own
        last ``limit`` rows, so the cost follows the rows kept, not the
        rows given.  An empty run changes nothing.
        """
        count = len(urls)
        if not count:
            return
        version = self.version = self.version + count
        if self.batch_cache:
            self.batch_cache.clear()
        log = self.log
        limit = max(256, 4 * len(self.entries))
        if count >= limit:
            log.clear()
            log.extend(urls[-limit:])
        else:
            log.extend(urls)
            for _ in range(len(log) - limit):
                log.popleft()
        self.floor = version - len(log)

    def touched_since(self, since_version: int) -> List[str]:
        """URLs changed after ``since_version`` (caller checked >=
        floor), each once, ordered by its latest change: the last
        ``version - since_version`` rows of the log."""
        latest = dict.fromkeys(
            itertools.islice(reversed(self.log), self.version - since_version)
        )
        return list(reversed(latest))


class ServerDB:
    """The measurement collection service (server_DB + global_DB)."""

    def __init__(self, entry_ttl: Optional[float] = 7 * 24 * 3600.0):
        # A negative TTL would evict a row in the write that stores it
        # (while its vouch still counts), and NaN would never expire.
        if entry_ttl is not None and not (
            isinstance(entry_ttl, (int, float)) and entry_ttl >= 0.0
        ):
            raise ValueError(
                f"entry_ttl must be None or a non-negative number: {entry_ttl!r}"
            )
        self.entry_ttl = entry_ttl
        self._uuid_counter = itertools.count(1)
        self._clients: Dict[str, float] = {}  # uuid -> registered_at
        self._shards: Dict[int, _AsShard] = {}
        self.voting = VotingLedger()
        self.update_count = 0  # total accepted updates (Table 7 row)
        self.rejected_registrations = 0
        self.full_syncs_served = 0
        self.delta_syncs_served = 0

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

        ``plane`` is the measurement plane the identity reports through,
        and so the plane of every report it makes; the voting ledger
        records it, its one home
        (:meth:`~repro.core.voting.VotingLedger.plane_of`).
        ``captcha_gated=False`` models planes whose reporters
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
        if plane != DEFAULT_PLANE:
            self.voting.set_client_plane(uuid, plane)
        return uuid

    @property
    def client_count(self) -> int:
        return len(self._clients)

    # -- reporting --------------------------------------------------------------

    def post_update(
        self, uuid: str, reports: Sequence[ReportItem], now: float
    ) -> int:
        """Accept a client's batch of blocked-URL reports.

        Returns the number of accepted items.  The client's entire current
        vouch set is extended by these entries (votes are renormalized by
        the ledger).  The one-upload case of :meth:`post_updates`.
        """
        return self.post_updates(((uuid, reports),), now)

    def post_updates(self, uploads: Sequence[Upload], now: float) -> int:
        """Accept ``uploads``, ``(uuid, items)`` pairs posted at ``now``
        in report order; returns the items accepted over all of them.
        Equal to :meth:`post_update` per upload in turn (DESIGN.md §16).

        Every UUID is checked before anything changes; an empty upload
        changes nothing.  An upload is *absorbed* when it is fresh — its
        UUID has no vouch set and has not appeared earlier in the call —
        and every one of its :class:`ReportItem` objects was applied
        earlier in the call.  Such an upload can only move ``last_uuid``,
        so consecutive absorbed uploads are applied as one block, by
        count (:meth:`_absorb`).  Any other upload takes the one-client
        step where it stands (:meth:`_apply_upload`).  No upload's plane
        is read: it is its UUID's, registered once.

        Items are recognised by identity: the table of applied items is
        keyed by ``id(item)`` and lives for this call only, while
        ``uploads`` keeps every item alive, so no id is reused.  A
        one-upload call takes the one-client step and builds no table.
        """
        clients = self._clients
        for uuid, _ in uploads:
            if uuid not in clients:
                raise RegistrationError(f"unknown client: {uuid!r}")
        if len(uploads) == 1:
            uuid, items = uploads[0]
            if items:
                self._apply_upload(uuid, items, now)
            return len(items)
        canonical_keys = self.voting.canonical_keys
        vouches = self.voting.vouches
        # The call's one-client steps, (items, keys), and the table of
        # their items: id(item) -> stored key, filled from steps[:filled]
        # when a fresh upload of another list is met.
        steps: List[Tuple[Sequence[ReportItem], List[Key]]] = []
        applied: Dict[int, Key] = {}
        filled = 0
        seen: Set[str] = set()
        block: List[_Run] = []
        accepted = 0
        # The open run of the block: its list and its UUIDs.
        run_items: Optional[Sequence[ReportItem]] = None
        run_uuids: List[str] = []
        for uuid, items in uploads:
            if items is run_items and uuid not in seen and not vouches(uuid):
                seen.add(uuid)
                run_uuids.append(uuid)  # the run's list once more
                continue
            if not items:
                continue
            fresh = uuid not in seen and not vouches(uuid)
            seen.add(uuid)
            if fresh and steps:
                keys: Optional[List[Key]] = None
                if items is steps[-1][0]:
                    keys = steps[-1][1]  # the last step's list again
                else:
                    for step_items, step_keys in steps[filled:]:
                        # Read back through the ledger: a new key the
                        # step listed twice is stored as its first copy.
                        applied.update(
                            zip(map(id, step_items), canonical_keys(step_keys))
                        )
                    filled = len(steps)
                    try:
                        keys = list(map(applied.__getitem__, map(id, items)))
                    except KeyError:
                        pass  # an item the call has not applied
                if keys is not None:
                    run_items, run_uuids = items, [uuid]
                    block.append((keys, run_uuids))
                    continue
            if block:
                accepted += self._absorb(block, steps, now)
                block = []
                run_items = None
            accepted += len(items)
            steps.append((items, self._apply_upload(uuid, items, now)))
        if block:
            accepted += self._absorb(block, steps, now)
        return accepted

    def _apply_upload(
        self, uuid: str, reports: Sequence[ReportItem], now: float
    ) -> List[Key]:
        """One client's upload, item by item: refresh or insert each
        entry, mark the runs, extend the client's vouch set, re-mark
        entries whose vote statistics moved, and evict expired rows of
        every shard touched.  Returns the items' normalized ``(url,
        asn)`` keys.

        Each item is one change to its shard, but the changes are marked
        in runs (:meth:`_AsShard.mark_changed`): a shard's changed URLs
        are marked together, ending a run just before an insert moves
        the shard's entry count, so versions, log and floor come out as
        if every item were marked alone (DESIGN.md §14)."""
        voting = self.voting
        # A key some client vouches for already is stored as the ledger's
        # one tuple for it, not as this upload's copy.
        keys = voting.canonical_keys(
            [(normalize_url(item.url), item.asn) for item in reports]
        )
        # asn -> (shard, URLs changed since the shard's last run ended)
        runs: Dict[int, Tuple[_AsShard, List[str]]] = {}
        track_expiry = self.entry_ttl is not None
        heappush = heapq.heappush
        run_asn = None  # the AS of the run the loop holds
        for item, (url, asn) in zip(reports, keys):
            if asn != run_asn:
                run = runs.get(asn)
                if run is None:
                    run = runs[asn] = (self._shard(asn), [])
                shard, pending = run
                entries = shard.entries
                run_asn = asn
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
                )
            else:
                entry.posted_at = now
                if item.measured_at > entry.measured_at:
                    entry.measured_at = item.measured_at
                entry.last_uuid = uuid
                stages = entry.stages
                for stage in item.stages:
                    if stage not in stages:
                        stages.append(stage)
            pending.append(url)
            if track_expiry:
                heappush(shard.expiry, (now, url))
        for shard, pending in runs.values():
            shard.mark_changed(pending)
        self.update_count += len(keys)
        diluting = voting.vouches(uuid)
        affected = voting.add_client_reports(uuid, keys)
        if diluting:
            # A re-post dilutes the client's earlier keys: re-mark those
            # the upload did not just mark, in the affected order.
            upload = set(keys)
            self._mark_vote_changes(
                [key for key in affected if key not in upload]
            )
        # Write-time eviction: stale rows leave with this write.
        for shard, _ in runs.values():
            self._evict_expired(shard, now)
        return keys

    def _absorb(
        self,
        block: Sequence[_Run],
        steps: Sequence[Tuple[Sequence[ReportItem], List[Key]]],
        now: float,
    ) -> int:
        """Apply a block of absorbed uploads (see :meth:`post_updates`)
        by count, and return the items accepted.  ``block`` holds runs
        ``(keys, uuids)``: the keys of one list, posted by each of
        ``uuids`` in turn.  Every item was applied at ``now`` by one of
        the call's one-client ``steps``.

        Entries: each listed URL's ``last_uuid`` goes to its last
        writer, the block's last upload that lists it.  Every other
        field already holds what the uploads write.  Shards: one run per
        shard, the uploads' URLs in upload order (no entry is inserted,
        so the log limit holds still), and one expiry row per item per
        upload, in that order.  ``update_count`` rises by count.
        Ledger: one call adds every first vouch set; a first vouch
        dilutes no earlier key, so nothing is re-marked.  Eviction is
        skipped: the step that applied an item evicted its shard at
        ``now``, and a row written at ``now`` cannot expire at ``now``
        (``entry_ttl >= 0``).
        """
        shards = self._shards
        # Each run's keys, distinct in report order: the run's first
        # vouch set, shared by its uploads.
        vouch_sets = [
            (tuple(dict.fromkeys(keys)), uuids) for keys, uuids in block
        ]
        # Last writers, from the block's end back: each key takes the UUID
        # of the last run that lists it.  Past a lone run, the scan stops
        # once every key the steps applied has its writer.
        listable = 0
        if len(block) > 1:
            step_keys = itertools.chain.from_iterable(k for _, k in steps)
            listable = len(dict.fromkeys(step_keys))
        written: Set[Key] = set()
        for vouch_set, uuids in reversed(vouch_sets):
            keys = vouch_set
            if written:
                keys = [key for key in vouch_set if key not in written]
            uuid = uuids[-1]
            for url, asn in keys:
                shards[asn].entries[url].last_uuid = uuid
            if listable:
                written.update(keys)
                if len(written) == listable:
                    break
        marks: Dict[int, List[str]] = {}
        accepted = 0
        for keys, uuids in block:
            repeats = len(uuids)
            for asn, urls in _urls_by_shard(keys).items():
                run = marks.get(asn)
                if run is None:
                    marks[asn] = urls * repeats
                else:
                    run += urls * repeats
            accepted += len(keys) * repeats
        self.update_count += accepted
        track_expiry = self.entry_ttl is not None
        for asn, urls in marks.items():
            shard = shards[asn]
            shard.mark_changed(urls)
            if track_expiry:
                expiry = shard.expiry
                for url in urls:
                    heapq.heappush(expiry, (now, url))
        self.voting.add_first_vouches(vouch_sets)
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
            affected = self.voting.set_client_reports(
                uuid, [kept for kept in current if kept != key]
            )
            self._mark_vote_changes(affected)
        if not self.voting.has_reporters(url, asn):
            shard = self._shards.get(asn)
            if shard is not None and shard.entries.pop(url, None) is not None:
                shard.mark_changed((url,))
            return True
        return False

    def _mark_vote_changes(self, keys: Sequence[Tuple[str, int]]) -> None:
        """Bump shard versions for entries whose vote statistics moved.

        A client growing its report list dilutes its vote on *every* key
        it vouches for, which can flip entries across a consumer's
        ``min_votes`` threshold — those entries must surface in the next
        delta even though nothing re-posted them.  Nothing is inserted or
        deleted here, so each shard's live keys, in ``keys`` order, are
        marked as one run.
        """
        shards = self._shards
        for asn, urls in _urls_by_shard(keys).items():
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
        atomically, dissent/revocation drop orphaned entries).  A NaN
        ``min_reporters`` or ``min_votes`` raises ``ValueError``.
        """
        _check_criterion(min_reporters, min_votes)
        shard = self._shards.get(asn)
        if shard is None:
            return []
        self._evict_expired(shard, now)
        if plane_weights is None:
            if min_reporters <= 1 and min_votes <= 0.0:
                return list(shard.entries.values())
            stats = self.voting.stats
        else:
            # Fidelity-weighted per-plane sums (DESIGN.md §13).
            weighted = self.voting.weighted_stats

            def stats(url: str, asn: int) -> VoteStats:
                return weighted(url, asn, plane_weights)

        return [
            entry
            for entry in shard.entries.values()
            if stats(entry.url, asn).passes(min_reporters, min_votes)
        ]

    def sync_batch_for_as(
        self,
        asn: int,
        now: float,
        since_version: Optional[int] = None,
        min_reporters: int = 1,
        min_votes: float = 0.0,
    ) -> SyncBatch:
        """Serve one client pull, incrementally when possible.

        ``since_version=None`` (first pull), a version below the shard's
        log floor (log truncated), or a version from the future (stale
        client state, e.g. a server restart) all fall back to a full
        snapshot.  Otherwise only entries touched after ``since_version``
        travel: re-evaluated against the confidence criterion, they land
        in ``urls`` (still listed) or ``removed`` (evicted, dissented
        away, or no longer passing the criterion).

        Built batches are cached on the shard keyed by ``(since,
        criterion)`` and invalidated by any shard change, so serving a
        whole cohort between changes constructs each distinct batch once
        (the serve counters still count every pull).  A NaN
        ``min_reporters`` or ``min_votes`` raises ``ValueError``, as in
        :meth:`blocked_for_as`.
        """
        _check_criterion(min_reporters, min_votes)
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
        key = (since_key, min_reporters, min_votes)
        cache = shard.batch_cache
        batch = cache.get(key)
        if batch is None:
            batch = self._build_batch(
                shard, asn, since_key, min_reporters, min_votes
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
    ) -> SyncBatch:
        """Construct one columnar batch (cache-miss path).

        ``since_version`` is ``None`` for a full snapshot; otherwise a
        delta strictly between the shard's floor and current version.
        Under the accept-all criterion neither branch reads vote
        statistics: every stored entry has a reporter (see
        :meth:`blocked_for_as`), so every live entry passes.  Columns are
        built by per-field passes over the selected rows — list
        comprehensions instead of six appends per row, each handed to
        ``tuple`` whole, which costs about half what draining a
        generator does.  The executable spec is the row twin in
        ``tests/_reference_globaldb.py``, which lists the same rows one
        entry object at a time.
        """
        stats = self.voting.stats
        check_votes = min_reporters > 1 or min_votes > 0.0
        entries = shard.entries
        removed: List[str] = []
        if since_version is None:
            if check_votes:
                rows = [
                    entry
                    for url, entry in entries.items()
                    if stats(url, asn).passes(min_reporters, min_votes)
                ]
                urls = tuple([entry.url for entry in rows])
            else:
                rows = list(entries.values())
                urls = tuple(entries)
        else:
            rows = []
            for url in shard.touched_since(since_version):
                entry = entries.get(url)
                if entry is not None and (
                    not check_votes
                    or stats(url, asn).passes(min_reporters, min_votes)
                ):
                    rows.append(entry)
                else:
                    removed.append(url)
            urls = tuple([entry.url for entry in rows])
        return SyncBatch(
            asn=asn,
            version=shard.version,
            full=since_version is None,
            urls=urls,
            stage_codes=tuple([encode_stages(entry.stages) for entry in rows]),
            measured_at=tuple([entry.measured_at for entry in rows]),
            posted_at=tuple([entry.posted_at for entry in rows]),
            first_measured_at=tuple(
                [entry.first_measured_at for entry in rows]
            ),
            reporter_uuids=tuple([entry.last_uuid for entry in rows]),
            removed=tuple(removed),
        )

    def version_for_as(self, asn: int) -> int:
        shard = self._shards.get(asn)
        return shard.version if shard is not None else 0

    def stats_for(self, url: str, asn: int) -> VoteStats:
        return self.voting.stats(normalize_url(url), asn)

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

    def revoke(self, uuid: str) -> None:
        """Revoke a malicious client: drop identity and vote influence.

        Entries only the revoked client vouched for are evicted outright,
        so they surface in the removal half of every consumer's next
        delta; entries with surviving reporters just get their statistics
        bumped (their vote mass shrank).  Changes are marked in the
        client's stored vouch order.
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
