"""Cross-layer trace bus for the request path.

Every request owns one :class:`SessionTrace`; the detection stages
(``core/detection.py``), the session flows (``core/session.py``), and
the transport wrappers (``circumvent/base.py``) all emit typed
:class:`TraceEvent`\\ s onto it with sim-time stamps.  The result is an
ICLab-style per-request provenance record: which Figure-4 stage ran
when, what evidence it produced, which transports were attempted, and
where the page-load time went.

Emission is *pure* with respect to the simulation: an event records
``clock()`` (``env.now``) but never creates engine events or advances
time, so tracing cannot perturb the bit-identical determinism the
regression goldens enforce.

Timestamps are guaranteed non-decreasing: ``emit`` rejects a stamp
earlier than its predecessor, which would indicate a trace shared
across sessions or a clock wired to the wrong environment.

Tracing has a *mode* (:class:`TraceMode`), selected per client via
``CSawConfig.trace_mode``:

- ``full`` — every event of every session is recorded (the default);
- ``off`` — no session records; every emission helper returns after
  one attribute test, no clock read, no allocation.

A disabled trace is still a valid, safely inert object: ``len() == 0``,
``stage_durations() == {}``.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Iterator, List, Optional

from .records import BlockType

__all__ = [
    "TraceEvent",
    "TraceMode",
    "SessionTrace",
    "DISABLED_TRACE",
    "transport_stage",
    "STAGE_SESSION",
    "STAGE_LOCAL_DNS",
    "STAGE_GLOBAL_DNS",
    "STAGE_TCP",
    "STAGE_TLS",
    "STAGE_HTTP",
    "STAGE_BLOCKPAGE_PHASE1",
    "STAGE_BLOCKPAGE_PHASE2",
]

# Figure-4 stage names (detection) plus the session-level envelope.
STAGE_SESSION = "session"
STAGE_LOCAL_DNS = "local-dns"
STAGE_GLOBAL_DNS = "global-dns"
STAGE_TCP = "tcp"
STAGE_TLS = "tls"
STAGE_HTTP = "http"
STAGE_BLOCKPAGE_PHASE1 = "blockpage-phase1"
STAGE_BLOCKPAGE_PHASE2 = "blockpage-phase2"


def transport_stage(name: str) -> str:
    """Stage label for a circumvention-transport attempt."""
    return "transport:" + name


class TraceMode(enum.Enum):
    """How much of the request path's trace bus is recorded."""

    OFF = "off"
    FULL = "full"

    @classmethod
    def parse(cls, value) -> "TraceMode":
        """Accept a TraceMode or its string value (config field)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown trace mode {value!r} (expected one of: {names})"
            ) from None


class TraceEvent:
    """One timestamped fact about a request.

    ``kind`` is one of:

    - ``begin`` / ``end`` — a stage span (``end`` carries ``duration``);
    - ``evidence`` — blocking evidence observed (``block_type`` set);
    - ``attempt`` / ``result`` — a transport fetch and its outcome;
    - ``serve`` — content handed to the user (``transport`` = path);
    - ``mark`` — out-of-band annotation (correction, record, cancel).
    """

    __slots__ = ("stage", "kind", "t", "duration", "transport",
                 "block_type", "detail")

    def __init__(
        self,
        stage: str,
        kind: str,
        t: float,
        duration: Optional[float] = None,
        transport: Optional[str] = None,
        block_type: Optional[BlockType] = None,
        detail: Optional[str] = None,
    ):
        self.stage = stage
        self.kind = kind
        self.t = t
        self.duration = duration
        self.transport = transport
        self.block_type = block_type
        self.detail = detail

    def __repr__(self) -> str:
        extras = []
        if self.duration is not None:
            extras.append(f"dur={self.duration:.3f}s")
        if self.transport is not None:
            extras.append(f"via={self.transport}")
        if self.block_type is not None:
            extras.append(self.block_type.value)
        if self.detail is not None:
            extras.append(self.detail)
        tail = (" " + " ".join(extras)) if extras else ""
        return f"<{self.t:.3f}s {self.stage}/{self.kind}{tail}>"


class SessionTrace:
    """Ordered, monotonically timestamped event log for one request.

    ``clock`` is the sim-time source (``lambda: env.now``).
    """

    __slots__ = ("url", "actor", "enabled", "_events", "_clock", "_last_t")

    def __init__(
        self,
        clock: Callable[[], float],
        url: Optional[str] = None,
        actor: Optional[str] = None,
        enabled: bool = True,
    ):
        self.url = url
        self.actor = actor
        # The whole off story is this one flag: every emission helper
        # tests it first and returns before touching the clock, so a
        # disabled trace costs one attribute load + branch per would-be
        # event — nothing else.
        self.enabled = enabled
        # Raw storage: 7-tuples in TraceEvent slot order, materialized
        # into TraceEvent objects on first read.  The request path emits
        # several events per request, and a per-emit object allocation
        # (plus its GC tracking — tuples of atoms get untracked, slotted
        # instances never do) is measurable against the <5% overhead
        # budget the benchmark guard enforces.
        self._events = []
        self._clock = clock
        self._last_t = float("-inf")

    # -- emission ------------------------------------------------------------

    def _emit(self, stage, kind, duration, transport, block_type, detail,
              started=None):
        # Positional hot path: one clock read per event, no keyword
        # unpacking.  ``started`` (a span's open stamp) turns into
        # ``duration`` here so span closers don't read the clock twice.
        if not self.enabled:
            return 0.0
        t = self._clock()
        if t < self._last_t:
            raise ValueError(
                f"trace timestamp went backwards ({t} < {self._last_t}): "
                "trace shared across sessions or clock wired to the wrong "
                "environment"
            )
        self._last_t = t
        if started is not None:
            duration = t - started
        self._events.append(
            (stage, kind, t, duration, transport, block_type, detail)
        )
        return t

    def begin(self, stage: str, *, detail: Optional[str] = None) -> float:
        """Open a stage span; returns the start stamp to pass to ``end``."""
        return self._emit(stage, "begin", None, None, None, detail)

    def end(
        self,
        stage: str,
        started: float,
        *,
        block_type: Optional[BlockType] = None,
        detail: Optional[str] = None,
    ) -> float:
        """Close a stage span; duration = now − ``started``."""
        return self._emit(
            stage, "end", None, None, block_type, detail, started
        )

    def evidence(
        self, stage: str, block_type: BlockType,
        *, detail: Optional[str] = None,
    ) -> float:
        return self._emit(stage, "evidence", None, None, block_type, detail)

    def mark(self, stage: str, detail: str) -> float:
        return self._emit(stage, "mark", None, None, None, detail)

    def attempt(self, stage: str, transport: str) -> float:
        """A transport fetch starts; returns the stamp for ``result``."""
        return self._emit(stage, "attempt", None, transport, None, None)

    def result(
        self, stage: str, started: float, transport: str, detail: str
    ) -> float:
        """A transport fetch completed; duration = now − ``started``."""
        return self._emit(
            stage, "result", None, transport, None, detail, started
        )

    # -- inspection ----------------------------------------------------------

    def _materialize(self) -> None:
        events = self._events
        for i, e in enumerate(events):
            if type(e) is tuple:
                events[i] = TraceEvent(*e)

    @property
    def events(self) -> List[TraceEvent]:
        """The typed event log (materializes the raw storage in place)."""
        self._materialize()
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        # Truthiness means "live trace", NOT "has events".  Without this,
        # ``__len__`` makes an *empty* enabled trace falsy, and the
        # hot-path guard idiom ``trace = self.trace if self.trace.enabled
        # else None`` followed by ``if trace: trace.begin(...)`` can never
        # emit a first event.  Use ``len(trace)`` to ask about contents.
        return self.enabled

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def stage_durations(self) -> Dict[str, float]:
        """Time spent per stage, insertion-ordered by first completion.

        Sums ``end`` and ``result`` spans, so parallel transport attempts
        contribute their full cost (this measures *where effort went*,
        not wall-clock: overlapping stages may sum past the total PLT).

        Reads the raw storage directly — this runs once per session
        (module aggregation) and must not force materialization.
        """
        durations: Dict[str, float] = {}
        for e in self._events:
            if type(e) is tuple:
                stage, kind, _t, duration = e[0], e[1], e[2], e[3]
            else:
                stage, kind, duration = e.stage, e.kind, e.duration
            if duration is not None and (kind == "end" or kind == "result"):
                durations[stage] = durations.get(stage, 0.0) + duration
        return durations

    def render(self) -> str:
        """Human-readable multi-line rendering (README example)."""
        header = f"trace for {self.url or '?'}"
        if self.actor:
            header += f" [{self.actor}]"
        lines = [header]
        for event in self.events:
            parts = [f"  {event.t:10.3f}s  {event.stage:<22} {event.kind}"]
            if event.duration is not None:
                parts.append(f"({event.duration:.3f}s)")
            if event.transport is not None:
                parts.append(f"via={event.transport}")
            if event.block_type is not None:
                parts.append(event.block_type.value)
            if event.detail is not None:
                parts.append(f"— {event.detail}")
            lines.append(" ".join(parts))
        return "\n".join(lines)


def _no_clock() -> float:  # pragma: no cover — a disabled trace never reads it
    raise AssertionError("disabled trace must never read the clock")


#: Shared inert trace for sessions that record nothing (``TraceMode.OFF``).
#: Emission helpers return after one predicate check, so one instance can
#: serve every disabled session — removing the per-request
#: ``SessionTrace`` (and clock-closure) allocation that the OFF overhead
#: budget cannot afford.  It carries no URL/actor: a disabled trace never
#: holds data.
DISABLED_TRACE = SessionTrace(_no_clock, enabled=False)
