"""CSawClient: the client-side proxy, assembled (§3, Figure 3).

One object per simulated user, owning:

- a :class:`LocalDatabase` (local_DB) and :class:`GlobalView` (the local
  copy of this AS's blocked list);
- a :class:`CircumventionModule` hosting the configured transports;
- a :class:`MeasurementModule` implementing Algorithm 1;
- a :class:`ReportingService` talking to the shared :class:`ServerDB`
  (reports carried over Tor when a report transport is given);
- a :class:`MultihomingManager` when attached to several providers.

All URL requests — page loads included, each embedded object counts as a
URL request of its own — go through :meth:`request`, i.e. through the
measurement module, which is what lets the pilot study observe blocking
of CDN servers that only ever appear as embedded resources (§7.4).
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..circumvent.base import Transport
from ..simnet.browser import load_page
from ..simnet.flow import ClientLoadTracker, FlowContext
from ..simnet.topology import AccessNetwork, AutonomousSystem
from ..simnet.world import World
from .circumvention import CircumventionModule
from .config import CSawConfig
from .globaldb import ServerDB
from .localdb import LocalDatabase
from .measurement import MeasurementModule
from .multihoming import MultihomingManager
from .reporting import GlobalView, ReportingService

__all__ = ["CSawClient"]


class CSawClient:
    """One installed C-Saw instance: proxy + databases + background jobs."""

    def __init__(
        self,
        world: World,
        name: str,
        isps: List[AutonomousSystem],
        transports: List[Transport],
        server_db: Optional[ServerDB] = None,
        config: Optional[CSawConfig] = None,
        report_transport: Optional[Transport] = None,
        location: str = "pakistan",
    ):
        self.world = world
        self.name = name
        self.config = config or CSawConfig()
        self.host, self.access = world.add_client(name, isps, location=location)
        self.load = ClientLoadTracker()
        self._rng = world.rngs.stream(f"client/{name}")

        self.local_db = LocalDatabase(
            asn=isps[0].asn if isps else 0,
            ttl=self.config.record_ttl,
            aggregation=self.config.aggregation_enabled,
            clock=lambda: world.env.now,
        )
        self.global_view = GlobalView()
        self.circumvention = CircumventionModule(
            world,
            transports,
            config=self.config,
            rng_stream=f"client/{name}/circumvention",
        )
        self.measurement = MeasurementModule(
            world,
            self.new_ctx(),
            self.local_db,
            self.circumvention,
            global_view=self.global_view,
            config=self.config,
            rng_stream=f"client/{name}/measurement",
        )
        self.multihoming: Optional[MultihomingManager] = None
        if self.access.multihomed:
            self.multihoming = MultihomingManager(
                world, self.access, rng_stream=f"client/{name}/multihoming"
            )
            self.measurement.multihoming = self.multihoming

        self.reporting: Optional[ReportingService] = None
        if server_db is not None:
            self.reporting = ReportingService(
                world,
                server_db,
                self.local_db,
                self.global_view,
                config=self.config,
                report_transport=report_transport,
                min_reporters=self.config.min_reporters,
                min_votes=self.config.min_votes,
            )

    # -- flow contexts ---------------------------------------------------------

    def new_ctx(self) -> FlowContext:
        """A fresh flow context (multihomed access re-picks the provider)."""
        return FlowContext.for_new_flow(
            self.host, self.access, self._rng, load=self.load
        )

    # -- lifecycle ----------------------------------------------------------------

    def install(self, captcha_passed: bool = True) -> Generator:
        """Process: register with the global DB and pull the blocked list."""
        if self.reporting is None:
            return None
        uuid = yield from self.reporting.register(
            self.new_ctx(), captcha_passed=captcha_passed
        )
        return uuid

    def start_background(self, until: float) -> None:
        """Launch periodic reporting/downloading and multihoming probing."""
        env = self.world.env
        if self.reporting is not None:
            env.process(self.reporting.run_periodic(self.new_ctx(), until))
        if self.multihoming is not None:
            env.process(self.multihoming.run_periodic(self.new_ctx(), until))

    def migrate(self, isps: List[AutonomousSystem]) -> Generator:
        """Process: move to a new access network (user mobility, §8).

        The local_DB's per-AS knowledge no longer describes the new
        vantage, so records are dropped and the blocked list for the new
        AS is pulled from the global database — "C-Saw will automatically
        adapt to user mobility".
        """
        if not isps:
            raise ValueError("migration needs at least one provider")
        self.access = AccessNetwork(
            isps=list(isps), access_rtt=self.access.access_rtt
        )
        self.host.asn = isps[0].asn
        self.local_db.asn = isps[0].asn
        self.local_db.clear()
        if self.access.multihomed:
            self.multihoming = MultihomingManager(
                self.world,
                self.access,
                rng_stream=f"client/{self.name}/multihoming/{isps[0].asn}",
            )
        else:
            self.multihoming = None
        self.measurement.multihoming = self.multihoming
        self.measurement.ctx = self.new_ctx()
        if self.reporting is not None and self.reporting.registered:
            count = yield from self.reporting.download_blocked_list(
                self.new_ctx()
            )
            return count
        return 0

    def validate(self, url: str) -> Generator:
        """Process: explicitly re-measure a URL on the direct path (§5).

        Individual validation of crowdsourced entries: bypasses the
        probability-p sampling, updates the local_DB with whatever the
        direct path shows, and — when the URL turns out *not* blocked —
        withdraws this client's vouch from the global database (dissent
        only removes the validator's own vote).

        Returns the :class:`DetectionOutcome`.
        """
        from .detection import measure_direct_path
        from .records import BlockStatus

        ctx = self.new_ctx()
        outcome = yield from measure_direct_path(self.world, ctx, url)
        if (
            outcome.status is BlockStatus.NOT_BLOCKED
            and not outcome.suspected_blockpage
            and outcome.response is not None
        ):
            self.local_db.record_measurement(url, BlockStatus.NOT_BLOCKED, [])
            if self.reporting is not None and self.reporting.registered:
                self.reporting.server.post_dissent(
                    self.reporting.uuid, url, self.asn, self.world.env.now
                )
        elif outcome.blocked:
            self.local_db.record_measurement(
                url, BlockStatus.BLOCKED, list(outcome.stages)
            )
        return outcome

    # -- serving ---------------------------------------------------------------------

    def request(self, url: str) -> Generator:
        """Process: one URL request through the proxy → ServedResponse."""
        response = yield from self.measurement.handle_request(
            url, ctx=self.new_ctx()
        )
        return response

    def _page_fetcher(self, url: str) -> Generator:
        served = yield from self.measurement.handle_request(url, ctx=self.new_ctx())
        return served.served

    def load_page(self, url: str, max_parallel: int = 6) -> Generator:
        """Process: full page load (document + objects) → PageLoadResult."""
        result = yield from load_page(
            self.world.env, self._page_fetcher, url, max_parallel=max_parallel
        )
        return result

    # -- introspection ----------------------------------------------------------------

    @property
    def asn(self) -> int:
        return self.local_db.asn

    def stats(self) -> dict:
        return {
            "requests": self.measurement.requests_handled,
            "probes": self.measurement.probes_launched,
            "local_db_records": self.local_db.record_count,
            "local_db_bytes": self.local_db.approx_bytes(),
            "blocked_records": len(self.local_db.blocked_records()),
            "global_view_entries": len(self.global_view),
            "global_view_version": self.global_view.version,
            "reports_posted": (
                self.reporting.reports_posted if self.reporting else 0
            ),
            "full_syncs": self.reporting.full_syncs if self.reporting else 0,
            "delta_syncs": (
                self.reporting.delta_syncs if self.reporting else 0
            ),
            "sync_rows_received": (
                self.reporting.sync_rows_received if self.reporting else 0
            ),
            "sync_bytes_received": (
                self.reporting.sync_bytes_received if self.reporting else 0
            ),
            "data_used_bytes": self.measurement.total_bytes,
            "redundant_data_bytes": self.measurement.redundant_bytes,
            # Where page-load time went, summed over finished sessions
            # (stage → sim-seconds; see analysis.plt_decomposition).
            "plt_breakdown": dict(self.measurement.stage_seconds),
            "sessions_completed": self.measurement.sessions_completed,
        }
