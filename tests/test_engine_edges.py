"""Edge-case tests for the event kernel beyond the happy paths."""

import pytest

from repro.simnet.engine import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)


class TestEventFailure:
    def test_fail_delivers_exception_to_waiter(self):
        env = Environment()
        gate = env.event()

        def waiter():
            try:
                yield gate
            except RuntimeError as exc:
                return f"caught:{exc}"

        proc = env.process(waiter())

        def failer():
            yield env.timeout(1)
            gate.fail(RuntimeError("boom"))

        env.process(failer())
        assert env.run(until=proc) == "caught:boom"

    def test_fail_requires_exception_instance(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_unwaited_failed_event_raises_at_step(self):
        env = Environment()
        gate = env.event()
        gate.fail(ValueError("lonely failure"))
        with pytest.raises(ValueError, match="lonely"):
            env.run()

    def test_any_of_fails_when_child_fails_first(self):
        env = Environment()

        def failing():
            yield env.timeout(1)
            raise KeyError("first")

        def slow():
            yield env.timeout(10)

        def racer():
            a = env.process(failing())
            b = env.process(slow())
            try:
                yield env.any_of([a, b])
            except KeyError:
                b.interrupt()
                return "condition-failed"

        assert env.run(until=env.process(racer())) == "condition-failed"

    def test_all_of_fails_fast_on_child_failure(self):
        env = Environment()

        def failing():
            yield env.timeout(1)
            raise ValueError("dead")

        def slow():
            yield env.timeout(50)
            return "slow-done"

        def joiner():
            a = env.process(failing())
            b = env.process(slow())
            try:
                yield env.all_of([a, b])
            except ValueError:
                return env.now

        # The barrier fails at t=1, not t=50.
        assert env.run(until=env.process(joiner())) == 1


class TestInterruptEdges:
    def test_interrupt_before_first_yield_is_delivered(self):
        env = Environment()
        log = []

        def sleeper():
            try:
                yield env.timeout(10)
            except Interrupt:
                log.append("interrupted")

        proc = env.process(sleeper())
        proc.interrupt("immediately")
        env.run()
        assert log == ["interrupted"]

    def test_double_interrupt_is_safe(self):
        env = Environment()

        def sleeper():
            try:
                yield env.timeout(10)
            except Interrupt:
                return "once"

        proc = env.process(sleeper())
        proc.interrupt()
        proc.interrupt()
        env.run()
        assert proc.value == "once"

    def test_interrupted_process_can_keep_working(self):
        env = Environment()

        def resilient():
            total = 0.0
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(5)  # continues after the interrupt
            return env.now

        def canceller(victim):
            yield env.timeout(2)
            victim.interrupt()

        proc = env.process(resilient())
        env.process(canceller(proc))
        env.run()
        assert proc.value == pytest.approx(7)


class TestEnvironmentEdges:
    def test_run_until_number_rejected(self):
        env = Environment()
        with pytest.raises(TypeError, match=r"env\.timeout\(delay\)"):
            env.run(until=42.5)

    def test_event_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value
        with pytest.raises(SimulationError):
            _ = env.event().ok

    def test_yielding_non_event_raises(self):
        env = Environment()

        def bad():
            yield 42  # type: ignore[misc]

        env.process(bad())
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_condition_spanning_environments_rejected(self):
        env_a, env_b = Environment(), Environment()
        ev_b = env_b.event()
        with pytest.raises(SimulationError):
            AnyOf(env_a, [ev_b])

    def test_initial_time_offset(self):
        env = Environment(initial_time=100.0)
        done = []

        def proc():
            yield env.timeout(5)
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [105.0]
