"""MeasurementSession: one request's walk through Algorithm 1.

Each ``MeasurementModule.handle_request`` call owns exactly one session.
The session carries all per-request state that the old generator flows
kept in nested closures (``circ_success``/``try_serve``), drives the
explicit flow transitions —

- ``not-measured`` → :meth:`_unknown_flow` (redundant requests, 2-phase
  block-page confirmation);
- ``blocked``      → :meth:`_blocked_flow` (circumvent + probabilistic
  direct probe);
- ``not-blocked``  → :meth:`_unblocked_flow` (direct, always measured)

— and threads its :class:`~repro.core.trace.SessionTrace` through every
layer it touches: the Figure-4 detection stages, each transport attempt,
and the serve/correction decisions.  The served
:class:`~repro.core.measurement.ServedResponse` carries the full trace.

Determinism: the control flow is a line-for-line port of the old
closures — engine events (``env.event``/``process``/``timeout``/
``any_of``) are created in the identical order, and the RNG is drawn at
the identical points, so same-seed runs stay bit-identical (enforced by
the golden in ``tests/data/session_refactor_golden.json``).
"""

from __future__ import annotations

from typing import List, Optional

from ..circumvent.base import FetchResult
from ..simnet.ipaddr import is_private
from ..simnet.tcp import TcpError
from .blockpage import phase2_is_blockpage
from .detection import DetectionOutcome
from .records import BlockStatus, BlockType
from .taxonomy import block_type_for
from .trace import (
    DISABLED_TRACE,
    STAGE_BLOCKPAGE_PHASE2,
    STAGE_SESSION,
    SessionTrace,
    TraceMode,
    transport_stage,
)

__all__ = ["MeasurementSession"]

# Bound by core.measurement at import time (cycle-breaker).  The flows
# construct a ServedResponse on every serve; a per-call
# ``from .measurement import ServedResponse`` would pay sys.modules
# machinery on the hot path, and a module-level import would be circular
# (measurement imports MeasurementSession from here).
ServedResponse = None


class MeasurementSession:
    """State machine for one URL request through the measurement module."""

    __slots__ = (
        "module", "world", "env", "ctx", "url", "duplicable",
        "served_event", "trace", "t0", "outcome", "circ_results",
        "response", "circ_started",
    )

    def __init__(self, module, ctx, url: str, duplicable: bool = True):
        self.module = module
        self.world = module.world
        self.env = module.world.env
        self.ctx = ctx
        self.url = url
        self.duplicable = duplicable
        # Created before the worker process is spawned (handle_request
        # yields it), matching the old event-creation order exactly.
        self.served_event = self.env.event()
        # Disabled sessions (OFF) share the inert DISABLED_TRACE
        # singleton — no per-request trace or clock-closure allocation on
        # the fast path.
        if module.trace_mode is TraceMode.OFF:
            self.trace = DISABLED_TRACE
        else:
            # Close over env, not self: a self-capturing clock would make
            # session → trace → clock → session a GC cycle per request.
            env = self.env
            self.trace = SessionTrace(
                lambda: env.now, url=url, actor="session"
            )
        self.t0: float = 0.0
        self.outcome: Optional[DetectionOutcome] = None
        self.circ_results: List[FetchResult] = []
        self.response = None
        self.circ_started = False

    # -- driver ----------------------------------------------------------------

    def run(self):
        """Process body: dispatch per Algorithm 1, serve, finalize."""
        module = self.module
        trace = self.trace
        traced = trace.enabled
        self.t0 = self.env.now
        if traced:
            trace.begin(STAGE_SESSION)
        status, record = module.local_db.lookup(self.url)
        if status is BlockStatus.NOT_MEASURED:
            entry = module.global_view.lookup(self.url)
            if entry is not None:
                result = yield from self._blocked_flow(
                    list(entry.stages), from_global=True
                )
            else:
                result = yield from self._unknown_flow()
        elif status is BlockStatus.BLOCKED:
            result = yield from self._blocked_flow(list(record.stages))
        else:
            result = yield from self._unblocked_flow()
        if traced:
            trace.end(STAGE_SESSION, self.t0, detail=result.status.value)
            module.absorb_trace(trace)
        else:
            module.sessions_completed += 1
        return result

    # -- serving ---------------------------------------------------------------

    def serve(self, response):
        """Hand ``response`` to the waiting request; attaches the trace."""
        trace = self.trace
        response.trace = trace
        if trace.enabled:
            trace._emit(
                STAGE_SESSION, "serve", response.plt, response.path, None, None
            )
        if not self.served_event.triggered:
            self.served_event.succeed(response)
        return response

    def circ_success(self) -> Optional[FetchResult]:
        for result in self.circ_results:
            if result.ok:
                return result
        return None

    def try_serve(self) -> None:
        """Serve as soon as a usable response exists (direct preferred)."""
        if self.response is not None:
            return
        outcome = self.outcome
        if (
            outcome is not None
            and outcome.status is BlockStatus.NOT_BLOCKED
            and not outcome.suspected_blockpage
            and outcome.response is not None
        ):
            self.response = self.serve(
                ServedResponse(
                    url=self.url,
                    plt=self.env.now - self.t0,
                    served=self.module._detection_as_fetch(outcome),
                    path="direct",
                    detection=outcome,
                )
            )
            return
        winner = self.circ_success()
        if winner is not None and (
            outcome is None
            or outcome.blocked
            or outcome.suspected_blockpage
        ):
            self.response = self.serve(
                ServedResponse(
                    url=self.url,
                    plt=self.env.now - self.t0,
                    served=winner,
                    path=winner.transport,
                    detection=outcome,
                )
            )

    # -- not-measured: redundant requests --------------------------------------

    def _unknown_flow(self):
        env = self.env
        module = self.module
        config = module.config
        ctx = self.ctx
        url = self.url
        trace = self.trace
        relay = module.circumvention.relay_for(url)

        first_byte = env.event()
        direct_proc = env.process(
            module._measure_direct(
                ctx, url, first_byte=first_byte, trace=trace
            )
        )
        circ_procs: List = []

        want_parallel = (
            self.duplicable
            and config.redundancy_mode == "parallel"
            and relay is not None
            and config.max_redundant_requests >= 2
        )
        if want_parallel and config.redundant_delay > 0:
            # Stagger the duplicate; skip it when the direct path starts
            # answering within the delay (footnote 10: "if we get a
            # response from the direct path within 2s, we do not send a
            # request on Tor").
            yield env.any_of(
                [direct_proc, first_byte, env.timeout(config.redundant_delay)]
            )
            if direct_proc.processed or first_byte.triggered:
                want_parallel = False
        if want_parallel and not direct_proc.processed:
            circ_procs = [
                env.process(
                    module._fetch_via(ctx, url, relay, trace=trace)
                )
                for _ in range(config.max_redundant_requests - 1)
            ]

        self.circ_started = bool(circ_procs)

        # Ordered dict-as-set: any_of registers callbacks in iteration
        # order, so hash-ordered sets here would leak into event order.
        pending = {
            p: None for p in [direct_proc, *circ_procs] if not p.processed
        }
        if direct_proc.processed:
            self.outcome = direct_proc.value
        self.try_serve()

        while pending:
            fired = yield env.any_of(list(pending))
            for event in fired:
                pending.pop(event, None)
                if event is direct_proc:
                    self.outcome = event.value
                else:
                    self.circ_results.append(event.value)
            # Direct path classified as blocked/suspect and no duplicate in
            # flight: launch circumvention now (serial mode, k=1, or the
            # stagger timer having skipped the duplicate).
            if (
                self.outcome is not None
                and not self.circ_started
                and (self.outcome.blocked or self.outcome.suspected_blockpage)
            ):
                transport = module.circumvention.choose(
                    url, self.outcome.stages
                )
                if transport is not None:
                    proc = env.process(
                        module._fetch_via(ctx, url, transport, trace=trace)
                    )
                    pending[proc] = None
                    self.circ_started = True
            self.try_serve()

        return self._finalize_unknown()

    def _finalize_unknown(self):
        """Phase-2 confirmation, correction, and record-keeping."""
        env = self.env
        module = self.module
        outcome = self.outcome
        stages = list(outcome.stages) if outcome else []
        comparator = next((r for r in self.circ_results if r.ok), None)

        if outcome is None:
            status = BlockStatus.NOT_MEASURED
        elif outcome.suspected_blockpage:
            status = BlockStatus.BLOCKED
            if comparator is not None:
                span = self.trace.begin(STAGE_BLOCKPAGE_PHASE2)
                if not phase2_is_blockpage(
                    outcome.response.size_bytes, comparator.response.size_bytes
                ):
                    # Phase-1 false positive: sizes match, the page is real.
                    status = BlockStatus.NOT_BLOCKED
                    if BlockType.BLOCK_PAGE in stages:
                        stages.remove(BlockType.BLOCK_PAGE)
                    self.trace.end(
                        STAGE_BLOCKPAGE_PHASE2, span,
                        detail="phase-1 false positive: sizes match",
                    )
                else:
                    self.trace.end(
                        STAGE_BLOCKPAGE_PHASE2, span,
                        detail="block page confirmed",
                    )
        elif (
            outcome.status is BlockStatus.NOT_BLOCKED
            and outcome.response is not None
        ):
            status = BlockStatus.NOT_BLOCKED
            if comparator is not None:
                span = self.trace.begin(STAGE_BLOCKPAGE_PHASE2)
                if phase2_is_blockpage(
                    outcome.response.size_bytes, comparator.response.size_bytes
                ):
                    # Phase-1 false negative: the served page was a block
                    # page.  Correct it by refreshing with the circumvented
                    # content.
                    status = BlockStatus.BLOCKED
                    stages.append(BlockType.BLOCK_PAGE)
                    self.trace.end(
                        STAGE_BLOCKPAGE_PHASE2, span,
                        detail="phase-1 false negative: refreshed",
                    )
                    if self.response is not None and self.response.path == "direct":
                        self.response.corrected = True
                        self.response.corrected_plt = env.now - self.t0
                        self.response.served = comparator
                        self.response.path = comparator.transport
                        self.trace.mark(
                            STAGE_SESSION,
                            "corrected: page refreshed via "
                            + comparator.transport,
                        )
                else:
                    self.trace.end(
                        STAGE_BLOCKPAGE_PHASE2, span, detail="page genuine"
                    )
        else:
            status = outcome.status

        if self.response is None:
            # Nothing servable arrived (direct failed, circumvention failed
            # or unavailable): serve the direct-path failure.
            fetch = module._detection_as_fetch(outcome) if outcome else None
            self.response = self.serve(
                ServedResponse(
                    url=self.url,
                    plt=env.now - self.t0,
                    served=fetch,
                    path="direct",
                    detection=outcome,
                )
            )

        if status is not BlockStatus.NOT_MEASURED:
            module._record(self.url, status, stages)
        if status is BlockStatus.NOT_BLOCKED:
            # The duplicates were pure overhead (§8 data-usage concern).
            module.redundant_bytes += sum(
                r.response.size_bytes for r in self.circ_results if r.ok
            )
        self.response.status = status
        self.response.stages = stages
        return self.response

    # -- blocked: circumvent (+ probabilistic direct probe) --------------------

    def _blocked_flow(self, stages: List[BlockType], from_global: bool = False):
        env = self.env
        module = self.module
        ctx = self.ctx
        url = self.url
        trace = self.trace
        if from_global:
            trace.mark(STAGE_SESSION, "blocked per global view")
        transport = module.circumvention.choose(url, stages)
        if transport is None:
            # No circumvention available at all: degenerate to direct.
            result = yield from self._unblocked_flow()
            return result

        # Local fixes ride the direct path, which measures it implicitly;
        # relay approaches probe the direct path with probability p.
        probe_proc = None
        if (
            self.duplicable
            and not transport.is_local_fix
            and module.rng.random() < module.config.probe_probability
        ):
            probe_proc = env.process(
                module._measure_direct(ctx, url, trace=trace)
            )
            module.probes_launched += 1
            trace.mark(STAGE_SESSION, "direct-path probe launched")

        result = yield env.process(
            module._fetch_via(ctx, url, transport, trace=trace)
        )

        if result.failed:
            # The chosen approach stopped working (fix defeated or relay
            # blocked).  Merge the fresh symptom and fall back to a relay.
            if transport.is_local_fix:
                module.circumvention.mark_fix_failed(url, transport.name)
            symptom = block_type_for(result.error) if result.error else None
            if (
                isinstance(result.error, TcpError)
                and is_private(result.error.dst_ip)
            ):
                # Dead connect into private space: an artifact of forged
                # DNS (the redirect target), not separate IP blocking.
                symptom = None
            if symptom is not None and symptom not in stages:
                stages.append(symptom)
                trace.evidence(transport_stage(transport.name), symptom)
            fallback = module.circumvention.relay_for(url)
            if fallback is not None and fallback.name != transport.name:
                retry = yield env.process(
                    module._fetch_via(ctx, url, fallback, trace=trace)
                )
                if retry.ok:
                    result = retry

        self.response = self.serve(
            ServedResponse(
                url=url,
                plt=env.now - self.t0,
                served=result,
                path=result.transport,
                status=BlockStatus.BLOCKED,
                stages=list(stages),
                probe_ran=probe_proc is not None,
            )
        )

        # Refresh the record (extends T_m; merges any new stage evidence).
        module._record(url, BlockStatus.BLOCKED, stages)

        if probe_proc is not None:
            outcome = yield probe_proc
            if (
                outcome.status is BlockStatus.NOT_BLOCKED
                and not outcome.suspected_blockpage
                and outcome.response is not None
            ):
                # Whitelisted (Blocked→Unblocked churn) or a false report
                # from the global_DB: the direct path works.
                module._record(url, BlockStatus.NOT_BLOCKED, [])
                self.response.status = BlockStatus.NOT_BLOCKED
                self.response.stages = []
                trace.mark(
                    STAGE_SESSION, "probe: direct path works; record cleared"
                )
            else:
                merged = list(stages)
                for stage in outcome.stages:
                    if stage not in merged:
                        merged.append(stage)
                module._record(url, BlockStatus.BLOCKED, merged)
                self.response.stages = merged
        return self.response

    # -- not-blocked: direct only, always measured ------------------------------

    def _unblocked_flow(self):
        env = self.env
        module = self.module
        ctx = self.ctx
        url = self.url
        trace = self.trace
        outcome = yield from module._measure_direct(ctx, url, trace=trace)

        if (
            outcome.status is BlockStatus.NOT_BLOCKED
            and not outcome.suspected_blockpage
            and outcome.response is not None
        ):
            module._record(url, BlockStatus.NOT_BLOCKED, [])
            self.response = self.serve(
                ServedResponse(
                    url=url,
                    plt=env.now - self.t0,
                    served=module._detection_as_fetch(outcome),
                    path="direct",
                    status=BlockStatus.NOT_BLOCKED,
                    detection=outcome,
                )
            )
            return self.response

        # Unblocked→Blocked churn (or a dead site): recover through
        # circumvention and re-record.
        stages = list(outcome.stages)
        transport = module.circumvention.choose(url, stages)
        circ = None
        if transport is not None:
            circ = yield env.process(
                module._fetch_via(ctx, url, transport, trace=trace)
            )

        status = BlockStatus.BLOCKED if outcome.blocked else outcome.status
        if outcome.suspected_blockpage and circ is not None and circ.ok:
            span = trace.begin(STAGE_BLOCKPAGE_PHASE2)
            if not phase2_is_blockpage(
                outcome.response.size_bytes, circ.response.size_bytes
            ):
                status = BlockStatus.NOT_BLOCKED
                if BlockType.BLOCK_PAGE in stages:
                    stages.remove(BlockType.BLOCK_PAGE)
                trace.end(
                    STAGE_BLOCKPAGE_PHASE2, span,
                    detail="phase-1 false positive: sizes match",
                )
            else:
                trace.end(
                    STAGE_BLOCKPAGE_PHASE2, span,
                    detail="block page confirmed",
                )

        if circ is not None and circ.ok and status is BlockStatus.BLOCKED:
            served_fetch, path = circ, circ.transport
        elif status is BlockStatus.NOT_BLOCKED and outcome.response is not None:
            served_fetch, path = module._detection_as_fetch(outcome), "direct"
        elif circ is not None and circ.ok:
            served_fetch, path = circ, circ.transport
        else:
            served_fetch, path = module._detection_as_fetch(outcome), "direct"

        if status is not BlockStatus.NOT_MEASURED:
            module._record(url, status, stages)
        self.response = self.serve(
            ServedResponse(
                url=url,
                plt=env.now - self.t0,
                served=served_fetch,
                path=path,
                status=status,
                stages=stages,
                detection=outcome,
            )
        )
        return self.response
