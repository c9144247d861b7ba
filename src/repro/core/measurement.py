"""The measurement module: Algorithm 1 plus redundancy and 2-phase serving.

Per user request for a URL, :meth:`MeasurementModule.handle_request`
spawns one :class:`~repro.core.session.MeasurementSession` which drives
the flow the local_DB dictates:

- ``not-measured`` (not in the local_DB, not in the global view): issue
  *redundant requests* — one on the direct path (running the Figure-4
  detection flowchart) and, in parallel mode, ``k-1`` copies through a
  circumvention path.  The user gets the first usable response: the
  direct one if phase-1 says it is not a block page, else the
  circumvented one.  Phase 2 (size comparison) runs once both responses
  exist; a phase-1 false negative is corrected by a page refresh.
- ``blocked``: circumvent with the approach the circumvention module
  picks; with probability *p* also probe the direct path (false-report
  resilience + Blocked→Unblocked churn detection).  Local fixes measure
  the direct path implicitly and skip the probe.
- ``not-blocked``: direct path only (*selective redundancy*) — but the
  direct fetch is itself a measurement, so Unblocked→Blocked churn is
  caught and recovered via circumvention on the spot.

``handle_request`` returns as soon as content is served; measurement
bookkeeping continues in a background process (exposed as
``ServedResponse.measurement_process`` so experiments can join on it;
the process's value is ``None``).
Every response carries the session's full stage trace
(``ServedResponse.trace``); the module aggregates per-stage durations
into ``stage_seconds`` — the PLT breakdown ``CSawClient.stats()`` and
the pilot report surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from ..circumvent.base import FetchResult, Transport
from ..simnet.flow import FlowContext
from ..simnet.world import World
from .circumvention import CircumventionModule
from .config import CSawConfig
from .detection import DetectionOutcome, measure_direct_path
from .localdb import LocalDatabase
from .records import BlockStatus, BlockType
from .reporting import GlobalView
from .session import MeasurementSession
from .taxonomy import failure_class
from .trace import SessionTrace, TraceMode

__all__ = ["ServedResponse", "MeasurementModule"]


@dataclass
class ServedResponse:
    """What the user got, when, and what the measurement concluded.

    Created at serve time; the background measurement process may update
    ``status``/``stages``/``corrected*`` afterwards — join on
    ``measurement_process`` before reading them in experiments.  That
    process is a join handle only: its value is ``None``, not this
    response, so a served request's objects form no reference cycle and
    are freed by reference counting once the caller drops them.
    """

    url: str
    plt: float  # user-perceived time until first content
    served: Optional[FetchResult]
    path: str  # "direct" or the circumvention approach used
    status: BlockStatus = BlockStatus.NOT_MEASURED
    stages: List[BlockType] = field(default_factory=list)
    detection: Optional[DetectionOutcome] = None
    corrected: bool = False  # phase-1 false negative fixed by page refresh
    corrected_plt: Optional[float] = None
    probe_ran: bool = False
    measurement_process: Optional[object] = None
    trace: Optional[SessionTrace] = None  # full session stage trace

    @property
    def ok(self) -> bool:
        return self.served is not None and self.served.ok

    @property
    def effective_plt(self) -> float:
        """PLT including the refresh when the first render was a block page."""
        return self.corrected_plt if self.corrected else self.plt


from . import session as _session_module

_session_module.ServedResponse = ServedResponse


def _join_handle(session_run: Generator) -> Generator:
    """Process body for a session worker: runs the session, returns nothing.

    The worker is the response's ``measurement_process``; were its value
    the response itself, every request would leave a response ↔ process
    reference cycle, which ``Environment.run`` (collector paused) keeps
    alive until the run ends.  Adds no engine event.
    """
    yield from session_run


class MeasurementModule:
    """Algorithm 1, wired to the local_DB, global view, and circumvention."""

    def __init__(
        self,
        world: World,
        ctx: FlowContext,
        local_db: LocalDatabase,
        circumvention: CircumventionModule,
        global_view: Optional[GlobalView] = None,
        config: Optional[CSawConfig] = None,
        rng_stream: str = "measurement",
    ):
        self.world = world
        self.ctx = ctx
        self.local_db = local_db
        self.circumvention = circumvention
        # Note: `or` would discard a shared-but-empty view (GlobalView
        # defines __len__, so an empty one is falsy).
        self.global_view = global_view if global_view is not None else GlobalView()
        self.config = config or CSawConfig()
        self.rng = world.rngs.stream(rng_stream)
        # Trace mode, resolved once so per-session setup is one identity
        # test.
        self.trace_mode = TraceMode.parse(self.config.trace_mode)
        self.requests_handled = 0
        self.probes_launched = 0
        # Data-usage accounting (§8: redundancy costs data, a concern in
        # developing regions).  ``redundant_bytes`` counts circumvention
        # bytes fetched for URLs the direct path served fine.
        self.bytes_by_path: dict = {}
        self.redundant_bytes = 0
        # Per-stage PLT decomposition, summed over finished sessions
        # (insertion-ordered by first completion — deterministic).
        self.stage_seconds: Dict[str, float] = {}
        self.sessions_completed = 0
        # Optional MultihomingManager; when set, measurements are pinned to
        # the stricter observation on multihomed networks (§4.4).
        self.multihoming = None

    def _record(
        self, url: str, status: BlockStatus, stages: List[BlockType]
    ) -> None:
        if self.multihoming is not None:
            status, stages = self.multihoming.adjust_measurement(
                self.local_db, url, status, stages
            )
        self.local_db.record_measurement(url, status, stages)

    # -- public entry point ----------------------------------------------------

    def handle_request(
        self,
        url: str,
        ctx: Optional[FlowContext] = None,
        method: str = "GET",
    ) -> Generator:
        """Process: serve ``url``; returns a :class:`ServedResponse`.

        Returns at serve time; measurement continues in the background.
        POST requests are never duplicated (footnote 7: redundant copies
        would cause multiple writes), so they run serially and skip the
        probabilistic direct-path probe.
        """
        env = self.world.env
        ctx = ctx or self.ctx
        if method not in ("GET", "POST"):
            raise ValueError(f"unsupported method: {method!r}")
        self.requests_handled += 1
        session = MeasurementSession(
            self, ctx, url, duplicable=method == "GET"
        )
        worker = env.process(_join_handle(session.run()))
        response = yield session.served_event
        response.measurement_process = worker
        return response

    def absorb_trace(self, trace: SessionTrace) -> None:
        """Fold one finished session's per-stage durations into the
        module-level PLT breakdown."""
        if trace.enabled and len(trace):
            for stage, seconds in trace.stage_durations().items():
                self.stage_seconds[stage] = (
                    self.stage_seconds.get(stage, 0.0) + seconds
                )
        self.sessions_completed += 1

    # -- plumbing (shared by the session flows) --------------------------------

    def _count_bytes(self, path: str, size: int) -> None:
        self.bytes_by_path[path] = self.bytes_by_path.get(path, 0) + size

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_path.values())

    def _fetch_via(
        self,
        ctx: FlowContext,
        url: str,
        transport: Transport,
        trace: Optional[SessionTrace] = None,
    ) -> Generator:
        # Load tracking is inlined (not a wrapping generator) so the
        # fetch pipeline sits one generator frame shallower — every
        # simnet event resume walks the whole yield-from chain.  A
        # disabled trace skips the traced_fetch wrapper frame too, for
        # the same reason.
        ctx.load.enter()
        try:
            if trace is None or not trace.enabled:
                result = yield from transport.fetch(self.world, ctx, url)
            else:
                result = yield from transport.traced_fetch(
                    self.world, ctx, url, trace=trace
                )
        finally:
            ctx.load.exit()
        if result.ok:
            self.circumvention.record_plt(transport.name, url, result.elapsed)
            self._count_bytes(transport.name, result.response.size_bytes)
        return result

    def _measure_direct(
        self,
        ctx: FlowContext,
        url: str,
        first_byte=None,
        trace: Optional[SessionTrace] = None,
    ) -> Generator:
        ctx.load.enter()
        try:
            outcome = yield from measure_direct_path(
                self.world, ctx, url, first_byte=first_byte, trace=trace
            )
        finally:
            ctx.load.exit()
        if outcome.response is not None:
            self._count_bytes("direct", outcome.response.size_bytes)
        return outcome

    @staticmethod
    def _detection_as_fetch(outcome: DetectionOutcome) -> FetchResult:
        return FetchResult(
            url=outcome.url,
            transport="direct",
            started=outcome.started,
            finished=outcome.finished,
            response=outcome.response,
            error=outcome.error,
            failure_stage=(
                failure_class(outcome.error) if outcome.error else None
            ),
        )
