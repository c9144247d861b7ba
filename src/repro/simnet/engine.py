"""Deterministic discrete-event simulation kernel.

Every network interaction in the reproduction (DNS lookups, TCP handshakes,
page fetches, censor-induced timeouts) runs as a *process* on this kernel: a
Python generator that yields :class:`Event` objects and is resumed when they
trigger.  The design follows the well-known SimPy model, restricted to the
primitives the C-Saw reproduction needs:

- :class:`Environment` — the virtual clock and event queue.
- :class:`Timeout` — an event that triggers after a virtual delay.
- :class:`Process` — a running generator; itself an event that triggers when
  the generator returns (its value) or raises (its failure).
- :class:`AnyOf` / :class:`AllOf` — condition events used for redundant
  requests ("first response wins") and barrier joins.  The losing request
  is not cancelled: ``_unknown_flow`` waits on ``any_of`` and lets the
  loser run to completion, because Algorithm 1 records the direct path's
  verdict either way.

Virtual time is a float in seconds.  The kernel is fully deterministic: ties
in the event queue are broken by insertion order.

Fast path
---------
The kernel is the hot loop under every experiment (~10^6 events per paper
artefact), so it trades a little uniformity for throughput:

- all event classes use ``__slots__`` (including :class:`Environment`);
  ``tests/test_engine.py`` fails on any :class:`Event` subclass in the
  package that does not declare them;
- waiters are stored in a compact ``_waiters`` slot: ``False`` (pending, no
  waiters yet), a single :class:`Process` (the overwhelmingly common case
  — the one process that yielded the event) or condition callback, a list
  (2+ waiters), or ``None`` (processed).  Storing the *process object* rather
  than a bound method avoids both an allocation per wait and a reference
  cycle per process (which kept the cyclic GC busy);
- queue entries are ``(time, eid, kind, obj)`` 4-tuples.  ``kind`` lets
  process kick-starts ride the queue *without* allocating a carrier
  :class:`Event` each;
- the queue is split three ways.  Entries scheduled *at the current time*
  (process starts, completions, ``succeed``/``fail``, zero-delay
  timeouts) go on a plain ``deque``: virtual time never moves
  backwards, so append order on that lane *is* ``(time, eid)`` order and
  the O(log n) heap is bypassed entirely.  Future entries (positive-delay
  timeouts) go through a one-entry ``_pending`` buffer so the common
  pop-after-push cycle costs a single ``heappushpop`` sift instead of a
  full push + pop pair; only bursts of future timeouts spill into the
  binary heap.  Pops merge the three lanes by plain tuple comparison;
- :class:`Timeout` keeps ``_ok``/``_defused`` as *class* attributes (a
  timeout always succeeds and is never defused), shaving two instance
  stores off the hottest allocation;
- :meth:`Environment.timeout` and :meth:`Environment.process` build their
  event objects and schedule them inline, skipping the ``__init__`` call
  chain;
- :meth:`Environment.run` is the one dispatch loop: the
  single-process-waiter case resumes the generator *inline* (no
  ``_resume`` call frame), and running until an event shares the same
  loop via a cheap per-iteration check.  :meth:`Process._resume`
  implements the same resume as a standalone method for the cold paths
  (already-processed events, multi-waiter lists) and must stay in sync
  with the inline one;
- the cyclic garbage collector is paused for the duration of
  :meth:`Environment.run` (and restored after).  Kernel objects are
  acyclic by construction, so reference counting reclaims them promptly
  either way; pausing avoids generation-0 scans triggered by the heavy
  event/tuple allocation churn.  What processes build while it runs must
  be acyclic too: a cycle lives until the first collection after
  ``run()`` returns (``tests/test_request_garbage.py`` guards the
  request paths).
"""

from __future__ import annotations

import gc as _gc
from collections import deque
from heapq import heappop as _heappop, heappush as _heappush, \
    heappushpop as _heappushpop
from typing import Any, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for kernel misuse (e.g. running a finished environment)."""


# Sentinel for Event state.
_PENDING = object()

# Queue-entry kinds (see Environment._imm / _queue).
_KIND_EVENT = 0  # obj is a triggered Event whose waiters must run
_KIND_START = 1  # obj is a Process to kick-start


class Event:
    """An occurrence in virtual time that processes can wait on.

    An event starts *pending*, is *triggered* with either a value
    (:meth:`succeed`) or an exception (:meth:`fail`), and is *processed* once
    the environment has notified its waiters.
    """

    __slots__ = ("env", "_waiters", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        # False = pending without waiters; a Process or callable = one
        # waiter; a list = several waiters; None = processed.
        self._waiters: Any = False
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        # True once a failure has been delivered to at least one waiter.
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self._waiters is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid = eid = env._eid + 1
        env._imm.append((env._now, eid, _KIND_EVENT, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception delivered to waiters."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid = eid = env._eid + 1
        env._imm.append((env._now, eid, _KIND_EVENT, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class _InitEvent(Event):
    """Singleton carrier for process kick-starts (never scheduled)."""

    __slots__ = ()

    def __init__(self):
        self.env = None
        self._waiters = None
        self._value = None
        self._ok = True
        self._defused = False


_INIT = _InitEvent()


class Timeout(Event):
    """Event that triggers ``delay`` seconds of virtual time in the future."""

    __slots__ = ("delay",)

    # A timeout always succeeds and is never defused; keeping these as
    # class attributes (legal: the slot descriptors live on Event and are
    # shadowed here) removes two instance stores from the hottest
    # allocation site.  They must never be assigned on an instance.
    _ok = True
    _defused = False

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # ``not >=`` rather than ``<``: NaN fails every comparison, so
        # only this form rejects it (same bytecode count on the hot path).
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        self.env = env
        self._waiters = False
        self._value = value
        self.delay = delay
        env._eid = eid = env._eid + 1
        if delay == 0:
            env._imm.append((env._now, eid, _KIND_EVENT, self))
        else:
            entry = (env._now + delay, eid, _KIND_EVENT, self)
            previous = env._pending
            if previous is None:
                env._pending = entry
            else:
                _heappush(env._queue, previous)
                env._pending = entry

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger automatically")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger automatically")


class Process(Event):
    """A running generator.  Triggers when the generator finishes.

    The generator yields events; each resumption receives the event's value
    (or has the event's exception thrown in).  Returning from the generator
    succeeds the process with the return value; an uncaught exception fails
    it.  Nothing else may trigger it: :meth:`succeed` and :meth:`fail`
    raise, as they do on a :class:`Timeout`.
    """

    __slots__ = ("_generator", "_send")

    def __init__(self, env: "Environment", generator: Generator):
        try:
            send = generator.send
        except AttributeError:
            raise TypeError(
                f"process() requires a generator, got {generator!r}"
            ) from None
        self.env = env
        self._waiters = False
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self._generator = generator
        self._send = send
        # Kick-start on the next loop iteration (no carrier event needed).
        env._eid = eid = env._eid + 1
        env._imm.append((env._now, eid, _KIND_START, self))

    def succeed(self, value: Any = None) -> "Event":
        raise SimulationError("a process triggers when its generator ends")

    def fail(self, exception: BaseException) -> "Event":
        raise SimulationError("a process triggers when its generator ends")

    # -- internal ---------------------------------------------------------

    def _resume(self, event: Event) -> None:
        # Cold-path twin of the inline resume in Environment.run — keep
        # the semantics in sync.
        env = self.env
        try:
            while True:
                if event._ok:
                    next_event = self._send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
                try:
                    waiters = next_event._waiters
                    other_env = next_event.env
                except AttributeError:
                    raise SimulationError(
                        f"process yielded a non-event: {next_event!r}"
                    ) from None
                if other_env is not env:
                    raise SimulationError("yielded event from another environment")
                if waiters is False:
                    next_event._waiters = self
                    return
                if waiters is not None:
                    if type(waiters) is list:
                        waiters.append(self)
                    else:
                        next_event._waiters = [waiters, self]
                    return
                # Event already processed: loop again immediately.
                event = next_event
        except StopIteration as stop:
            if self._value is _PENDING:
                self._ok = True
                self._value = stop.value
                env._eid = eid = env._eid + 1
                env._imm.append((env._now, eid, _KIND_EVENT, self))
        except BaseException as exc:
            if self._value is _PENDING:
                self._ok = False
                self._value = exc
                env._eid = eid = env._eid + 1
                env._imm.append((env._now, eid, _KIND_EVENT, self))


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_matched", "_need")

    def __init__(self, env: "Environment", events: Iterable[Event], need: int):
        self.env = env
        self._waiters = False
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.events: List[Event] = list(events)
        self._matched = 0
        self._need = need if need >= 0 else len(self.events)
        if not self.events:
            self.succeed({})
            return
        check = self._check
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("condition spans multiple environments")
            waiters = ev._waiters
            if waiters is None:  # already processed
                check(ev)
            elif waiters is False:
                ev._waiters = check
            elif type(waiters) is list:
                waiters.append(check)
            else:
                ev._waiters = [waiters, check]

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._matched += 1
        if self._matched >= self._need:
            self.succeed(
                {
                    ev: ev._value
                    for ev in self.events
                    if ev._waiters is None and ev._ok
                }
            )

    def __len__(self) -> int:
        return len(self.events)


class AnyOf(_Condition):
    """Triggers when any child event triggers (fails if one fails first)."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, need=1)


class AllOf(_Condition):
    """Triggers when all child events have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, need=-1)  # -1: all of them


class Environment:
    """Virtual clock plus event queue.

    Use :meth:`process` to launch generators, :meth:`run` to execute until
    the queue drains or an event triggers.
    """

    __slots__ = ("_now", "_imm", "_pending", "_queue", "_eid")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # Three scheduling lanes, all holding (time, eid, kind, obj) entries:
        # _imm for entries at the current time (append order == heap order
        # because time is monotonic), _pending as a one-entry buffer for the
        # most recent future timeout, _queue as the spill heap for bursts.
        self._imm: deque = deque()
        self._pending: Optional[tuple] = None
        self._queue: List[Any] = []
        self._eid = 0

    @property
    def now(self) -> float:
        return self._now

    # -- event constructors -------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # Fast path: build the Timeout and schedule it inline, skipping the
        # Event.__init__ call chain (hottest allocation site).
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        t = _new_timeout(Timeout)
        t.env = self
        t._waiters = False
        t._value = value
        t.delay = delay
        self._eid = eid = self._eid + 1
        if delay == 0:
            self._imm.append((self._now, eid, _KIND_EVENT, t))
        else:
            entry = (self._now + delay, eid, _KIND_EVENT, t)
            previous = self._pending
            if previous is None:
                self._pending = entry
            else:
                _heappush(self._queue, previous)
                self._pending = entry
        return t

    def process(self, generator: Generator) -> Process:
        # Fast path mirroring timeout(): inline Process construction.
        try:
            send = generator.send
        except AttributeError:
            raise TypeError(
                f"process() requires a generator, got {generator!r}"
            ) from None
        p = _new_process(Process)
        p.env = self
        p._waiters = False
        p._value = _PENDING
        p._ok = None
        p._defused = False
        p._generator = generator
        p._send = send
        self._eid = eid = self._eid + 1
        self._imm.append((self._now, eid, _KIND_START, p))
        return p

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def run(self, until: Optional[Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (drain the queue) or an :class:`Event`
        (run until it triggers, returning its value or raising its
        failure).  To run for a span of virtual time, pass
        ``env.timeout(delay)``.
        """
        if until is not None and not isinstance(until, Event):
            raise TypeError(
                f"run(until=...) takes an Event or None, got {until!r};"
                " pass env.timeout(delay) to run for a span of time"
            )
        if until is not None and until._waiters is None:
            # Already processed before we started.
            if until._ok:
                return until._value
            until._defused = True
            raise until._value
        imm = self._imm
        queue = self._queue
        popleft = imm.popleft
        imm_append = imm.append
        # Pause the cyclic collector for the duration of the loop: kernel
        # allocations are acyclic (reclaimed by refcount), and the churn
        # otherwise triggers constant generation-0 scans.  Everything the
        # processes build meanwhile must be acyclic too: a cycle is freed
        # only by the first collection after run() returns, so one cycle
        # per request keeps every request's objects for the whole run
        # (tests/test_request_garbage.py guards the request paths).
        gc_was_enabled = _gc.isenabled()
        if gc_was_enabled:
            _gc.disable()
        try:
            # The fused dispatch+resume loop.  Process._resume implements
            # the identical resume for the cold paths.
            while True:
                # -- pop: the globally next entry across the three lanes ----
                if imm:
                    entry = imm[0]
                    pending = self._pending
                    if pending is not None and pending < entry:
                        if queue and queue[0] < pending:
                            entry = _heappop(queue)
                        else:
                            self._pending = None
                            entry = pending
                    elif queue and queue[0] < entry:
                        entry = _heappop(queue)
                    else:
                        entry = popleft()
                else:
                    pending = self._pending
                    if pending is not None:
                        self._pending = None
                        entry = _heappushpop(queue, pending) if queue \
                            else pending
                    elif queue:
                        entry = _heappop(queue)
                    elif until is None:
                        return None
                    else:
                        raise SimulationError(
                            "event queue drained before the awaited event"
                            " triggered"
                        )
                when, _eid, kind, obj = entry
                self._now = when
                # -- dispatch ----------------------------------------------
                if kind:
                    # _KIND_START: treat as resuming the process with the
                    # _INIT carrier through the fused resume below.
                    waiters = obj
                    obj = _INIT
                else:
                    waiters = obj._waiters
                    obj._waiters = None
                    if waiters is False:
                        if obj._ok is False and not obj._defused:
                            raise obj._value
                        if until is not None and until._waiters is None:
                            break
                        continue
                # -- resume (fused) ----------------------------------------
                if type(waiters) is Process:
                    p = waiters
                    try:
                        if obj._ok:
                            next_event = p._send(obj._value)
                        else:
                            obj._defused = True
                            next_event = p._generator.throw(obj._value)
                    except StopIteration as stop:
                        if p._value is _PENDING:
                            p._ok = True
                            p._value = stop.value
                            self._eid = eid = self._eid + 1
                            imm_append((when, eid, 0, p))
                    except BaseException as exc:
                        if p._value is _PENDING:
                            p._ok = False
                            p._value = exc
                            self._eid = eid = self._eid + 1
                            imm_append((when, eid, 0, p))
                    else:
                        try:
                            w2 = next_event._waiters
                            nenv = next_event.env
                        except AttributeError:
                            p._ok = False
                            p._value = SimulationError(
                                f"process yielded a non-event: {next_event!r}"
                            )
                            self._eid = eid = self._eid + 1
                            imm_append((when, eid, 0, p))
                        else:
                            if nenv is not self:
                                p._ok = False
                                p._value = SimulationError(
                                    "yielded event from another environment"
                                )
                                self._eid = eid = self._eid + 1
                                imm_append((when, eid, 0, p))
                            elif w2 is False:
                                next_event._waiters = p
                            elif w2 is None:
                                # Already-processed event: re-resume (rare).
                                p._resume(next_event)
                            elif type(w2) is list:
                                w2.append(p)
                            else:
                                next_event._waiters = [w2, p]
                elif type(waiters) is list:
                    for waiter in waiters:
                        if type(waiter) is Process:
                            waiter._resume(obj)
                        else:
                            waiter(obj)
                else:
                    waiters(obj)
                if obj._ok is False and not obj._defused:
                    raise obj._value
                if until is not None and until._waiters is None:
                    break
        finally:
            if gc_was_enabled:
                _gc.enable()
        if until._ok:
            return until._value
        until._defused = True
        raise until._value


_new_timeout = Timeout.__new__
_new_process = Process.__new__
