"""Client↔global_DB synchronisation (§4.2, §5).

Clients register once (CAPTCHA-gated), then periodically:

- upload reports about blocked URLs — carried over Tor so the censor
  cannot identify contributors (no PII ever leaves the client);
- download the blocked-URL list for their own AS into a local
  :class:`GlobalView`, so crowdsourced knowledge is available before the
  first local measurement.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Union

from ..circumvent.base import Transport, fetch_pipeline
from ..simnet.flow import FlowContext
from ..simnet.world import World
from ..urlkit import base_url, normalize_url
from .config import CSawConfig
from .globaldb import GlobalEntry, PackedRow, ReportItem, ServerDB, SyncBatch
from .localdb import LocalDatabase

__all__ = ["GlobalView", "ReportingService", "ensure_collector"]

COLLECTOR_HOSTNAME = "collector.csaw-metrics.io"

#: Seconds of float rounding under which a periodic countdown is due.
_DUE = 1e-9


def ensure_collector(world: World) -> str:
    """Create the measurement-collection endpoint site (idempotent)."""
    if world.web.site_for(COLLECTOR_HOSTNAME) is None:
        site = world.web.add_site(
            COLLECTOR_HOSTNAME, location="us-east", supports_https=True
        )
        world.web.add_page(f"https://{COLLECTOR_HOSTNAME}/", size_bytes=600)
    return f"https://{COLLECTOR_HOSTNAME}/"


class GlobalView:
    """Client-side cache of the AS's blocked list from the global_DB.

    Tracks the server-side shard version it last saw (plus which AS that
    version belongs to), so the next pull can request only the diff.
    A pulled row is stored packed and decoded on its first read
    (:meth:`lookup`, :meth:`entries`): a client reads few of the rows it
    pulls.  The decoded entry stays in place until a later pull
    overwrites its URL, so repeated reads return the same object.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, Union[GlobalEntry, PackedRow]] = {}
        self.last_synced: Optional[float] = None
        self.version: int = 0
        self.synced_asn: Optional[int] = None

    def __len__(self) -> int:
        return len(self._entries)

    def replace(self, entries: List[GlobalEntry], now: float) -> None:
        self._entries = {entry.url: entry for entry in entries}
        self.last_synced = now
        self.version = 0
        self.synced_asn = None

    def since_version(self, asn: int) -> Optional[int]:
        """What to present to the server: our version, or None (full pull)
        when we have never synced this AS — e.g. right after mobility."""
        return self.version if self.synced_asn == asn else None

    def apply_batch(self, batch: SyncBatch, now: float) -> None:
        """Fold one columnar :class:`SyncBatch` into the cached view.

        The batch's packed rows go in with one dict update and no
        per-row object.  Read back, the view is bit-identical to one
        that stored the server's entry objects (the row twin in
        ``tests/_reference_globaldb.py``; the property tests enforce it).
        """
        if batch.full:
            self._entries = dict(batch.packed_rows())
        else:
            entries = self._entries
            for url in batch.removed:
                entries.pop(url, None)
            entries.update(batch.packed_rows())
        self.version = batch.version
        self.synced_asn = batch.asn
        self.last_synced = now

    def _read(self, url: str) -> GlobalEntry:
        """The stored entry for ``url``, decoded in place on first read."""
        found = self._entries[url]
        if isinstance(found, tuple):
            found = self._entries[url] = GlobalEntry.unpack(url, found)
        return found

    def lookup(self, url: str) -> Optional[GlobalEntry]:
        """Exact match first, then the URL's base (aggregated entries)."""
        url = normalize_url(url)
        if url not in self._entries:
            url = base_url(url)
            if url not in self._entries:
                return None
        return self._read(url)

    def entries(self) -> List[GlobalEntry]:
        """Every entry, in view order."""
        return [self._read(url) for url in list(self._entries)]

    def urls(self) -> List[str]:
        return list(self._entries)


class ReportingService:
    """Registration, periodic report upload, periodic blocked-list pull."""

    def __init__(
        self,
        world: World,
        server: ServerDB,
        local_db: LocalDatabase,
        global_view: GlobalView,
        config: Optional[CSawConfig] = None,
        report_transport: Optional[Transport] = None,
        min_reporters: int = 1,
        min_votes: float = 0.0,
    ):
        self.world = world
        self.server = server
        self.local_db = local_db
        self.global_view = global_view
        self.config = config or CSawConfig()
        self.report_transport = report_transport  # Tor, for anonymity
        self.min_reporters = min_reporters
        self.min_votes = min_votes
        self.uuid: Optional[str] = None
        self.reports_posted = 0
        self.full_syncs = 0
        self.delta_syncs = 0
        self.sync_rows_received = 0  # entries + removals over all pulls
        self.sync_bytes_received = 0  # estimated wire bytes over all pulls
        self._collector_url = ensure_collector(world)

    @property
    def registered(self) -> bool:
        return self.uuid is not None

    # -- RPC plumbing ---------------------------------------------------------

    def _rpc(self, ctx: FlowContext) -> Generator:
        """One round trip to the collection service.

        Over Tor when a report transport is configured (anonymity);
        otherwise a plain fetch.  The RPC outcome is the latency cost —
        the payloads themselves are exchanged with the in-process server.
        """
        if self.report_transport is not None:
            result = yield from self.report_transport.fetch(
                self.world, ctx, self._collector_url
            )
        else:
            result = yield from fetch_pipeline(
                self.world, ctx, self._collector_url, transport_name="report-rpc"
            )
        return result

    # -- operations --------------------------------------------------------------

    def register(self, ctx: FlowContext, captcha_passed: bool = True) -> Generator:
        """Process: solve the CAPTCHA, register, pull the first blocked list."""
        env = self.world.env
        # "No CAPTCHA reCAPTCHA" solve time for a human.
        yield env.timeout(ctx.rng.uniform(3.0, 12.0))
        rpc = yield from self._rpc(ctx)
        if rpc.failed:
            return None
        # A CAPTCHA-gated identity on the default plane, C-Saw's own
        # in-browser one: the plane of every report it posts.
        self.uuid = self.server.register(
            env.now, captcha_passed=captcha_passed
        )
        yield from self.download_blocked_list(ctx)
        return self.uuid

    def post_reports(self, ctx: FlowContext) -> Generator:
        """Process: upload pending blocked-URL records (over Tor)."""
        if self.uuid is None:
            raise RuntimeError("client not registered with the global DB")
        pending = self.local_db.pending_reports()
        if not pending:
            return 0
        rpc = yield from self._rpc(ctx)
        if rpc.failed:
            return 0  # retry at the next interval
        items = [
            ReportItem(
                url=record.url,
                asn=record.asn,
                stages=tuple(record.stages),
                measured_at=record.measured_at,
            )
            for record in pending
        ]
        accepted = self.server.post_update(self.uuid, items, self.world.env.now)
        self.local_db.mark_posted([record.url for record in pending])
        self.reports_posted += accepted
        return accepted

    def download_blocked_list(self, ctx: FlowContext) -> Generator:
        """Process: pull this AS's blocked list into the global view.

        Presents the view's last-seen shard version so the server can
        answer with just the diff; the first pull (and any pull after
        mobility or server-side log truncation) transfers the full
        snapshot.
        """
        rpc = yield from self._rpc(ctx)
        if rpc.failed:
            return 0
        now = self.world.env.now
        asn = self.local_db.asn
        since = self.global_view.since_version(asn)
        batch = self.server.sync_batch_for_as(
            asn,
            now,
            since_version=since,
            min_reporters=self.min_reporters,
            min_votes=self.min_votes,
        )
        self.global_view.apply_batch(batch, now)
        if batch.full:
            self.full_syncs += 1
        else:
            self.delta_syncs += 1
        self.sync_rows_received += batch.transferred
        self.sync_bytes_received += batch.wire_bytes
        return len(batch.urls)

    def run_periodic(self, ctx: FlowContext, until: float) -> Generator:
        """Background process: report + download loops until ``until``.

        Each operation counts down its own interval over the loop's
        sleeps and runs when its countdown reaches zero, then starts it
        again; with equal intervals every wakeup posts, then pulls.  A
        countdown within a nanosecond's rounding of zero is due, so
        intervals that are multiples of one another stay in step.
        """
        env = self.world.env
        config = self.config
        report_in = config.report_interval
        download_in = config.download_interval
        while env.now < until:
            delay = min(report_in, download_in)
            yield env.timeout(delay)
            report_in -= delay
            download_in -= delay
            if report_in <= _DUE:
                report_in = config.report_interval
                if self.uuid is not None:
                    yield from self.post_reports(ctx)
            if download_in <= _DUE:
                download_in = config.download_interval
                yield from self.download_blocked_list(ctx)
