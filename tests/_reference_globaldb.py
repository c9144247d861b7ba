"""Executable specs for the global_DB: writes, pulls and vote tallies.

The production paths must match these bit for bit; only the tests and
``benchmarks/bench_fleet_storm.py`` use them.

- :class:`ReferenceServerDB` marks every shard change on its own:
  ``post_update`` marks each item as it is applied, vote-driven re-marks
  go one key at a time, and its shards re-read the log limit after every
  append; a group upload is one ``post_update`` per UUID, in order.  The
  run-batched ``post_update`` / ``post_updates`` must match it
  (``tests/test_properties.py``, ``TestRunBatchedWriteProperties``).
- :func:`sync_for_as` serves a pull as per-row entry objects and
  :func:`apply_sync` folds them into a ``GlobalView``; the columnar
  ``sync_batch_for_as`` + ``apply_batch`` must leave the same client
  state (``TestSyncWireFormatProperties``).
- :func:`recompute_stats` and :func:`recompute_plane_stats` rebuild a
  key's d-histogram from its reporters, the clients whose vouch sets
  hold it (:func:`reporters_of`); the ledger's incremental ``stats``
  and one plane's entry of ``plane_stats`` (:func:`plane_stats_of`,
  read from the ledger's per-plane snapshot) must equal them exactly.
  They read only the vouch sets and the plane assignments, the
  ledger's primary state.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.globaldb import (
    GlobalEntry,
    RegistrationError,
    ReportItem,
    ServerDB,
    _AsShard,
)
from repro.core.reporting import GlobalView
from repro.core.voting import VoteStats, VotingLedger
from repro.urlkit import normalize_url


class ReferenceShard(_AsShard):
    """A shard that marks a run one URL at a time."""

    __slots__ = ()

    def mark_changed(self, urls: Sequence[str]) -> None:
        for url in urls:
            self.version += 1
            if self.batch_cache:
                self.batch_cache.clear()
            self.log.append(url)
            limit = max(256, 4 * len(self.entries))
            while len(self.log) > limit:
                self.log.popleft()
                self.floor += 1


class ReferenceServerDB(ServerDB):
    """ServerDB whose writes mark one change per step."""

    def _shard(self, asn: int) -> _AsShard:
        shard = self._shards.get(asn)
        if shard is None:
            shard = self._shards[asn] = ReferenceShard()
        return shard

    def post_update(self, uuid: str, reports: List[ReportItem], now: float) -> int:
        if uuid not in self._clients:
            raise RegistrationError(f"unknown client: {uuid!r}")
        accepted = 0
        keys: List[Tuple[str, int]] = []
        shards_touched: Dict[int, _AsShard] = {}
        for item in reports:
            url = normalize_url(item.url)
            keys.append((url, item.asn))
            shard = self._shard(item.asn)
            shards_touched[item.asn] = shard
            entry = shard.entries.get(url)
            if entry is None:
                entry = GlobalEntry(
                    url=url,
                    asn=item.asn,
                    stages=list(item.stages),
                    measured_at=item.measured_at,
                    posted_at=now,
                    last_uuid=uuid,
                    first_measured_at=item.measured_at,
                )
                shard.entries[url] = entry
            else:
                entry.posted_at = now
                entry.measured_at = max(entry.measured_at, item.measured_at)
                entry.last_uuid = uuid
                for stage in item.stages:
                    if stage not in entry.stages:
                        entry.stages.append(stage)
            shard.mark_changed((url,))
            if self.entry_ttl is not None:
                heapq.heappush(shard.expiry, (now, url))
            accepted += 1
            self.update_count += 1
        if accepted:
            affected = self.voting.add_client_reports(uuid, keys)
            self._mark_vote_changes(
                [key for key in affected if key not in keys]
            )
            for shard in shards_touched.values():
                self._evict_expired(shard, now)
        return accepted

    def _mark_vote_changes(self, keys: Iterable[Tuple[str, int]]) -> None:
        for url, asn in keys:
            shard = self._shards.get(asn)
            if shard is not None and url in shard.entries:
                shard.mark_changed((url,))


# -- pulls --------------------------------------------------------------------


@dataclass(frozen=True)
class SyncResult:
    """One pull as per-row objects: ``entries`` to (re)store, ``removed``
    URLs to drop (none on a full pull), ``version`` to present next."""

    asn: int
    version: int
    full: bool
    entries: List[GlobalEntry] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)

    @property
    def transferred(self) -> int:
        return len(self.entries) + len(self.removed)


def sync_for_as(
    server: ServerDB,
    asn: int,
    now: float,
    since_version: Optional[int] = None,
    min_reporters: int = 1,
    min_votes: float = 0.0,
) -> SyncResult:
    """``server.sync_batch_for_as`` as per-row entries: the same full or
    delta decision, serve counters and rows, with every touched entry
    re-checked against the criterion and no batch cache."""
    shard = server._shards.get(asn)
    if shard is None:
        server.full_syncs_served += 1
        return SyncResult(asn=asn, version=0, full=True)
    server._evict_expired(shard, now)
    if (
        since_version is None
        or since_version < shard.floor
        or since_version > shard.version
    ):
        server.full_syncs_served += 1
        entries = server.blocked_for_as(asn, now, min_reporters, min_votes)
        return SyncResult(asn, shard.version, True, entries)
    server.delta_syncs_served += 1
    stats = server.voting.stats
    changed: List[GlobalEntry] = []
    removed: List[str] = []
    for url in shard.touched_since(since_version):
        entry = shard.entries.get(url)
        if entry is not None and stats(url, asn).passes(min_reporters, min_votes):
            changed.append(entry)
        else:
            removed.append(url)
    return SyncResult(asn, shard.version, False, changed, removed)


def apply_sync(view: GlobalView, result: SyncResult, now: float) -> None:
    """Fold ``result`` into ``view`` as the server's entry objects."""
    if result.full:
        view._entries = {entry.url: entry for entry in result.entries}
    else:
        for url in result.removed:
            view._entries.pop(url, None)
        for entry in result.entries:
            view._entries[entry.url] = entry
    view.version = result.version
    view.synced_asn = result.asn
    view.last_synced = now


# -- vote tallies -------------------------------------------------------------


def _tally(ledger: VotingLedger, reporters: Iterable[str]) -> VoteStats:
    """s/n of ``reporters``: one vote each, spread over the d keys it
    vouches for, summed over sorted d as the ledger sums them."""
    hist: Dict[int, int] = {}
    count = 0
    for client_id in reporters:
        count += 1
        d = len(ledger._by_client.get(client_id, ()))
        if d:
            hist[d] = hist.get(d, 0) + 1
    votes = 0.0
    for d in sorted(hist):
        votes += hist[d] / d
    return VoteStats(votes=votes, reporters=count)


def reporters_of(ledger: VotingLedger, url: str, asn: int) -> List[str]:
    """The clients whose vouch sets hold ``(url, asn)``, in client order."""
    key = (url, asn)
    return [c for c, keys in ledger._by_client.items() if key in keys]


def vouched_keys(ledger: VotingLedger) -> Set[Tuple[str, int]]:
    """Every key some client vouches for: the union of the vouch sets."""
    return set().union(*ledger._by_client.values())


def recompute_stats(ledger: VotingLedger, url: str, asn: int) -> VoteStats:
    """``ledger.stats`` from scratch, walking every reporter of the key."""
    return _tally(ledger, reporters_of(ledger, url, asn))


def plane_stats_of(
    ledger: VotingLedger, url: str, asn: int, plane: str
) -> VoteStats:
    """The ledger's s/n over ``plane``'s reporters of a key, read from
    ``plane_stats``, its per-plane snapshot (zero when the plane has
    none)."""
    return ledger.plane_stats(url, asn).get(plane, VoteStats(0.0, 0))


def recompute_plane_stats(
    ledger: VotingLedger, url: str, asn: int, plane: str
) -> VoteStats:
    """:func:`plane_stats_of` from scratch: the key's reporters on
    ``plane`` only."""
    return _tally(
        ledger,
        [c for c in reporters_of(ledger, url, asn)
         if ledger.plane_of(c) == plane],
    )
