"""Edge-case tests for the event kernel beyond the happy paths."""

import pytest

from repro.simnet.engine import (
    AllOf,
    AnyOf,
    Environment,
    SimulationError,
)
from repro.simnet.simtime import time_eq


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
            return "slow-done"

        def racer():
            a = env.process(failing())
            b = env.process(slow())
            try:
                yield env.any_of([a, b])
            except KeyError:
                return "condition-failed", env.now, b

        outcome, failed_at, loser = env.run(until=env.process(racer()))
        assert (outcome, failed_at) == ("condition-failed", 1)
        # The failed condition does not stop the other child.
        env.run()
        assert loser.value == "slow-done"
        assert time_eq(env.now, 10)

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


class TestProcessTrigger:
    def test_running_process_cannot_be_forged(self):
        """Only the generator's return triggers a process: ``succeed``
        and ``fail`` from outside raise, and the real return stands."""
        env = Environment()
        log = []

        def worker():
            yield env.timeout(5)
            log.append(("finished", env.now))
            return "real"

        p = env.process(worker())

        def forger():
            yield env.timeout(1)
            with pytest.raises(SimulationError):
                p.succeed("forged")
            with pytest.raises(SimulationError):
                p.fail(RuntimeError("forged"))
            log.append(("refused", env.now))

        env.process(forger())
        env.run()
        assert p.value == "real"
        assert p.ok
        assert log == [("refused", 1), ("finished", 5)]


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
