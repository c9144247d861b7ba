"""Per-item reference for ServerDB's run-batched write path.

:class:`ReferenceServerDB` is :class:`~repro.core.globaldb.ServerDB` with
every shard change marked on its own: ``post_update`` walks the upload
and marks each item as it is applied, vote-driven re-marks go one key at
a time, and its shards mark each URL of a run separately, re-reading the
log limit after every append.  This is the executable spec the batched
production path must match bit for bit (``tests/test_properties.py``,
``TestRunBatchedWriteProperties``); nothing outside the tests uses it.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.globaldb import (
    GlobalEntry,
    RegistrationError,
    ReportItem,
    ServerDB,
    _AsShard,
)
from repro.urlkit import normalize_url


class ReferenceShard(_AsShard):
    """A shard that marks a run one URL at a time."""

    __slots__ = ()

    def mark_changed(self, urls: Sequence[str]) -> None:
        for url in urls:
            self.version += 1
            if self.batch_cache:
                self.batch_cache.clear()
            self.log.append((self.version, url))
            limit = max(256, 4 * len(self.entries))
            while len(self.log) > limit:
                self.floor = self.log.popleft()[0]


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
        by_plane = self.reports_by_plane
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
                    last_plane=item.plane,
                )
                shard.entries[url] = entry
            else:
                entry.posted_at = now
                entry.measured_at = max(entry.measured_at, item.measured_at)
                entry.last_uuid = uuid
                entry.last_plane = item.plane
                for stage in item.stages:
                    if stage not in entry.stages:
                        entry.stages.append(stage)
            shard.mark_changed((url,))
            if self.entry_ttl is not None:
                heapq.heappush(shard.expiry, (now, url))
            accepted += 1
            self.update_count += 1
            by_plane[item.plane] = by_plane.get(item.plane, 0) + 1
        if accepted:
            affected = self.voting.add_client_reports(uuid, keys)
            self._mark_vote_changes(affected.difference(keys))
            for shard in shards_touched.values():
                self._evict_expired(shard, now)
        return accepted

    def _mark_vote_changes(self, keys: Iterable[Tuple[str, int]]) -> None:
        for url, asn in keys:
            shard = self._shards.get(asn)
            if shard is not None and url in shard.entries:
                shard.mark_changed((url,))
