"""local_DB: the client-side URL measurement store (§4.1, §4.4).

An in-memory hash table of :class:`URLRecord` objects with:

- TTL expiry (records age back to ``not-measured``, which is how
  Blocked→Unblocked churn is eventually observed — Scenario A in §4.4);
- URL aggregation with longest-prefix matching (Figure 6b's ~55 % record
  reduction), switchable off for the ablation;
- report bookkeeping for the periodic global_DB upload.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..urlkit import normalize_url, parse_url
from .aggregation import UrlPrefixIndex, storage_key
from .records import BlockStatus, BlockType, URLRecord

__all__ = ["LocalDatabase"]


def _checked_ttl(ttl: float) -> float:
    # `not ttl > 0` rejects NaN too: a NaN TTL never expires a record.
    if not ttl > 0:
        raise ValueError(f"ttl must be positive: {ttl!r}")
    return ttl


class LocalDatabase:
    """Per-client store of blocking measurements."""

    def __init__(
        self,
        asn: int = 0,
        ttl: float = 24 * 3600.0,
        aggregation: bool = True,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.asn = asn
        self.ttl = _checked_ttl(ttl)
        self.aggregation = aggregation
        self._clock = clock or (lambda: 0.0)
        self._records: Dict[str, URLRecord] = {}
        self._index = UrlPrefixIndex()
        # Maintained on every write so report assembly never scans the
        # whole table: keys of blocked records, and the subset not yet
        # posted to the global database.  Dicts-as-ordered-sets keep
        # iteration deterministic (hash-randomized set order would leak
        # into report order and break reproducibility).
        self._blocked_keys: Dict[str, None] = {}
        self._pending_keys: Dict[str, None] = {}

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def record_count(self) -> int:
        return len(self._records)

    def records(self) -> List[URLRecord]:
        return list(self._records.values())

    def approx_bytes(self) -> int:
        """Rough in-memory footprint of the table (§4.4 motivates the
        aggregation scheme with memory-constrained mobile devices).

        Counts the URL key, the fixed per-record fields, and the stage
        list — the quantities aggregation actually shrinks.
        """
        per_record_overhead = 88  # timestamps, status, flags, dict slot
        total = 0
        for key, record in self._records.items():
            total += per_record_overhead + 2 * len(key)  # key + record.url
            total += 16 * len(record.stages)
        return total

    # -- lookup --------------------------------------------------------------

    def lookup(self, url: str) -> Tuple[BlockStatus, Optional[URLRecord]]:
        """Blocking status of ``url`` per the stored records.

        Returns ``(NOT_MEASURED, None)`` when nothing (unexpired) matches.
        With aggregation on, a derived URL inherits the most specific
        stored record via longest-prefix matching.
        """
        url = normalize_url(url)
        now = self._clock()
        if self.aggregation:
            key = self._index.longest_prefix(url)
        else:
            key = url if url in self._records else None
        if key is None:
            return BlockStatus.NOT_MEASURED, None
        record = self._records.get(key)
        if record is None:  # index out of sync should not happen
            return BlockStatus.NOT_MEASURED, None
        if record.is_expired(now, self.ttl):
            self._drop(key)
            return BlockStatus.NOT_MEASURED, None
        return record.status, record

    # -- updates --------------------------------------------------------------

    def record_measurement(
        self,
        url: str,
        status: BlockStatus,
        stages: Optional[List[BlockType]] = None,
        now: Optional[float] = None,
    ) -> URLRecord:
        """Store a fresh measurement, applying the aggregation policy."""
        if status is BlockStatus.NOT_MEASURED:
            raise ValueError("cannot record a not-measured status")
        url = normalize_url(url)
        stages = list(stages or [])
        when = self._clock() if now is None else now

        key = storage_key(url, status, stages) if self.aggregation else url
        existing = self._records.get(key)
        if existing is not None and existing.status is status:
            existing.measured_at = when
            before = len(existing.stages)
            existing.merge_stages(stages)
            if len(existing.stages) != before:
                existing.global_posted = False
            record = existing
        else:
            record = URLRecord(
                url=key,
                asn=self.asn,
                measured_at=when,
                status=status,
                stages=stages,
            )
            self._records[key] = record
            self._index.add(key)
        self._track(key, record)

        if self.aggregation:
            self._apply_aggregation_cleanup(record)
        return record

    def _track(self, key: str, record: URLRecord) -> None:
        """Keep the blocked/pending key sets in step with ``record``."""
        if record.status is BlockStatus.BLOCKED:
            self._blocked_keys[key] = None
            if record.global_posted:
                self._pending_keys.pop(key, None)
            else:
                self._pending_keys.setdefault(key)
        else:
            self._blocked_keys.pop(key, None)
            self._pending_keys.pop(key, None)

    def _apply_aggregation_cleanup(self, record: URLRecord) -> None:
        parsed = parse_url(record.url)
        siblings = [
            key
            for key in self._index.keys_for_origin(record.url)
            if key != record.url
        ]
        if record.status is BlockStatus.NOT_BLOCKED and parsed.is_base:
            # Case (c): one not-blocked record at the base suffices; keep
            # blocked derived records (case (b) still stands for them).
            for key in siblings:
                other = self._records.get(key)
                if other is not None and other.status is BlockStatus.NOT_BLOCKED:
                    self._drop(key)
        elif record.status is BlockStatus.BLOCKED and parsed.is_base:
            # Case (a) / hostname-scoped blocking: every derived URL is
            # covered by the base record.
            for key in siblings:
                self._drop(key)

    def clear(self) -> None:
        """Drop every record (fresh-install state; used by experiments)."""
        self._records.clear()
        self._index = UrlPrefixIndex()
        self._blocked_keys.clear()
        self._pending_keys.clear()

    # -- persistence across client restarts -----------------------------------

    def snapshot(self) -> dict:
        """JSON-able dump of the table (the client persists its local_DB
        across restarts so blocked-URL knowledge survives)."""
        return {
            "asn": self.asn,
            "ttl": self.ttl,
            "aggregation": self.aggregation,
            "records": [
                {
                    "url": record.url,
                    "asn": record.asn,
                    "measured_at": record.measured_at,
                    "status": record.status.value,
                    "stages": [stage.value for stage in record.stages],
                    "global_posted": record.global_posted,
                }
                for record in self._records.values()
            ],
        }

    def restore(self, snapshot: dict) -> int:
        """Load a :meth:`snapshot` dump; returns the record count.

        Existing records are dropped first.  The snapshot's TTL applies:
        records already stale at restore time simply expire on first
        lookup, like any other.
        """
        ttl = _checked_ttl(float(snapshot["ttl"]))
        self.clear()
        self.asn = int(snapshot["asn"])
        self.ttl = ttl
        self.aggregation = bool(snapshot["aggregation"])
        for item in snapshot["records"]:
            record = URLRecord(
                url=item["url"],
                asn=int(item["asn"]),
                measured_at=float(item["measured_at"]),
                status=BlockStatus(item["status"]),
                stages=[BlockType(value) for value in item["stages"]],
                global_posted=bool(item["global_posted"]),
            )
            self._records[record.url] = record
            self._index.add(record.url)
            self._track(record.url, record)
        return len(self._records)

    def _drop(self, key: str) -> None:
        self._records.pop(key, None)
        self._index.remove(key)
        self._blocked_keys.pop(key, None)
        self._pending_keys.pop(key, None)

    # -- reporting ------------------------------------------------------------

    def pending_reports(self) -> List[URLRecord]:
        """Blocked records not yet posted to the global database.

        Proportional to the pending work, not the table size: the key set
        is maintained on every write (record/merge/drop/mark_posted).
        """
        records = self._records
        return [records[key] for key in self._pending_keys]

    def mark_posted(self, urls: List[str]) -> None:
        for url in urls:
            key = normalize_url(url)
            record = self._records.get(key)
            if record is not None:
                record.global_posted = True
                self._pending_keys.pop(key, None)

    def blocked_records(self) -> List[URLRecord]:
        records = self._records
        return [records[key] for key in self._blocked_keys]
