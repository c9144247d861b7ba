"""Unit tests for the discrete-event kernel."""

import gc
import importlib
import pkgutil
import sys

import pytest

import repro
from repro.simnet import engine
from repro.simnet.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    SimulationError,
    Timeout,
)
from repro.simnet.simtime import time_eq


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(1.5)
        yield env.timeout(2.5)
        return env.now

    assert env.run(until=env.process(proc())) == 4.0
    assert env.now == 4.0


def test_timeout_value_passthrough():
    env = Environment()

    def proc():
        got = yield env.timeout(1.0, value="hello")
        return got

    assert env.run(until=env.process(proc())) == "hello"


def test_negative_delay_rejected():
    env = Environment()
    for delay in (-1, float("nan")):
        with pytest.raises(ValueError):
            env.timeout(delay)
        with pytest.raises(ValueError):
            Timeout(env, delay)


def test_process_return_value():
    env = Environment()

    def inner():
        yield env.timeout(1)
        return 42

    def outer():
        value = yield env.process(inner())
        return value + 1

    assert env.run(until=env.process(outer())) == 43


def test_yield_from_composition():
    env = Environment()

    def inner():
        yield env.timeout(3)
        return "inner-done"

    def outer():
        value = yield from inner()
        return value

    assert env.run(until=env.process(outer())) == "inner-done"
    assert env.now == 3


def test_process_failure_propagates_to_waiter():
    env = Environment()

    def failing():
        yield env.timeout(1)
        raise ValueError("boom")

    def waiter():
        try:
            yield env.process(failing())
        except ValueError as exc:
            return f"caught {exc}"

    assert env.run(until=env.process(waiter())) == "caught boom"


def test_unhandled_process_failure_raises_at_run():
    env = Environment()

    def failing():
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(failing())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_event_succeed_wakes_waiters_in_order():
    env = Environment()
    gate = env.event()
    woken = []

    def waiter(name):
        value = yield gate
        woken.append((name, value, env.now))

    env.process(waiter("a"))
    env.process(waiter("b"))

    def trigger():
        yield env.timeout(5)
        gate.succeed("go")

    env.process(trigger())
    env.run()
    assert woken == [("a", "go", 5), ("b", "go", 5)]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_any_of_returns_first():
    env = Environment()

    def proc():
        fast = env.timeout(1, value="fast")
        slow = env.timeout(10, value="slow")
        result = yield env.any_of([fast, slow])
        return result

    result = env.run(until=env.process(proc()))
    assert list(result.values()) == ["fast"]
    assert env.now == 1


def test_all_of_waits_for_all():
    env = Environment()

    def proc():
        a = env.timeout(1, value="a")
        b = env.timeout(4, value="b")
        result = yield env.all_of([a, b])
        return sorted(result.values())

    assert env.run(until=env.process(proc())) == ["a", "b"]
    assert env.now == 4


def test_any_of_empty_triggers_immediately():
    env = Environment()

    def proc():
        result = yield env.any_of([])
        return result

    assert env.run(until=env.process(proc())) == {}


def test_run_until_time():
    env = Environment()
    ticks = []

    def ticker():
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(ticker())
    env.run(until=env.timeout(10.5))
    assert ticks == list(range(1, 11))
    assert env.now == 10.5


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(42)  # type: ignore[arg-type]


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1)
        order.append(name)

    for name in ("first", "second", "third"):
        env.process(proc(name))
    env.run()
    assert order == ["first", "second", "third"]


def test_nested_any_of_with_processes():
    env = Environment()

    def worker(delay, tag):
        yield env.timeout(delay)
        return tag

    def racer():
        a = env.process(worker(3, "a"))
        b = env.process(worker(7, "b"))
        result = yield env.any_of([a, b])
        winner = list(result.values())[0]
        return winner, env.now, b

    winner, won_at, loser = env.run(until=env.process(racer()))
    assert (winner, won_at) == ("a", 3)
    # Nothing cancels the loser (Algorithm 1 measures the direct path
    # either way): it is still running, and finishes on its own.
    assert not loser.triggered
    env.run()
    assert loser.value == "b"
    assert time_eq(env.now, 7)


def test_drained_queue_with_pending_event_errors():
    env = Environment()
    never = env.event()

    def waiter():
        yield never

    proc = env.process(waiter())
    with pytest.raises(SimulationError):
        env.run(until=proc)


# -- the collector pause ------------------------------------------------------
#
# run() pauses the cyclic collector for its loop, so anything cyclic built
# meanwhile lives until run() returns; each exit path must restore the
# caller's collector state.


def _exit_drained(env, body):
    env.process(body())
    env.run()


def _exit_until_event(env, body):
    env.run(until=env.process(body()))


def _exit_until_time(env, body):
    env.process(body())
    env.run(until=env.timeout(5.0))


def _exit_failure_drained(env, body):
    env.process(body(fail=True))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def _exit_failure_until_event(env, body):
    with pytest.raises(ValueError, match="boom"):
        env.run(until=env.process(body(fail=True)))


def _exit_failure_until_time(env, body):
    env.process(body(fail=True))
    with pytest.raises(ValueError, match="boom"):
        env.run(until=env.timeout(5.0))


def _exit_queue_drained_early(env, body):
    env.process(body())
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=env.event())


@pytest.mark.parametrize("caller_enabled", [True, False])
@pytest.mark.parametrize(
    "exit_path",
    [
        _exit_drained,
        _exit_until_event,
        _exit_until_time,
        _exit_failure_drained,
        _exit_failure_until_event,
        _exit_failure_until_time,
        _exit_queue_drained_early,
    ],
    ids=lambda fn: fn.__name__[len("_exit_"):],
)
def test_run_restores_collector_state(exit_path, caller_enabled):
    env = Environment()
    seen = []

    def body(fail=False):
        seen.append(gc.isenabled())
        yield env.timeout(1.0)
        if fail:
            raise ValueError("boom")

    was_enabled = gc.isenabled()
    if caller_enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        exit_path(env, body)
        after = gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()
    assert seen == [False]  # paused while the loop ran
    assert after is caller_enabled


def run_timer_storm(n_processes=200, ticks=50):
    """~10k timeout events: the kernel's scheduling fast path."""
    env = Environment()

    def ticker(delay):
        for _ in range(ticks):
            yield env.timeout(delay)

    for index in range(n_processes):
        env.process(ticker(0.1 + index * 0.001))
    env.run()
    return env.now


def run_spawn_join_storm(width=40, depth=3):
    """Process trees: spawn, barrier-join, value propagation."""
    env = Environment()

    def node(level):
        if level == 0:
            yield env.timeout(0.01)
            return 1
        children = [env.process(node(level - 1)) for _ in range(3)]
        gathered = yield env.all_of(children)
        return sum(gathered.values())

    roots = [env.process(node(depth)) for _ in range(width)]
    env.run()
    return sum(root.value for root in roots)


def test_kernel_storms_call_only_kernel_code():
    """The kernel benches' storms enter no Python function outside
    ``simnet/engine.py`` and this file: a trace hook, counter or lazy
    import added to the event loop shows up here as a foreign module,
    whatever it costs on the clock."""
    modules = set()

    def profile(frame, event, arg):
        if event == "call":
            modules.add(frame.f_globals.get("__name__"))

    # A collection during the storm runs every collector hook, and an
    # earlier test's library may have left one (hypothesis times
    # collections with a hook from its first ``@given`` run on).  Those
    # are not kernel code; hooks from ``repro`` itself stay and count.
    hooks = gc.callbacks[:]
    gc.callbacks[:] = [
        hook for hook in hooks
        if getattr(hook, "__module__", "").split(".")[0] == "repro"
    ]
    sys.setprofile(profile)
    try:
        end = run_timer_storm()
        leaves = run_spawn_join_storm()
    finally:
        sys.setprofile(None)
        gc.callbacks[:] = hooks
    assert end > 0
    assert leaves == 40 * 27  # 3^3 leaves per root
    assert modules == {engine.__name__, __name__}


def test_every_event_class_declares_slots():
    """``Event`` and each subclass anywhere in the package declare
    ``__slots__``: one that does not gives every instance a ``__dict__``
    again, on the kernel's hottest allocations."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        # Importing the analyzer's ``__main__`` would run it.
        if not module.name.endswith(".__main__"):
            importlib.import_module(module.name)
    classes, stack = [], [Event]
    while stack:
        cls = stack.pop()
        classes.append(cls)
        stack.extend(cls.__subclasses__())
    missing = sorted(
        f"{cls.__module__}.{cls.__qualname__}"
        for cls in classes
        if "__slots__" not in cls.__dict__
    )
    assert not missing, f"event classes without __slots__: {missing}"
