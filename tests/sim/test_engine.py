"""Tests of the discrete-event engine (environment, run/step semantics)."""

import pytest

from repro.sim import Environment, LoopWakeup
from repro.sim.engine import EmptySchedule


def test_clock_starts_at_initial_time():
    env = Environment(initial_time=42)
    assert env.now == 42


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield 10
        log.append(env.now)
        yield 5
        log.append(env.now)

    LoopWakeup(env, proc(env))
    env.run()
    assert log == [10, 15]


def test_run_until_time_stops_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield 7

    LoopWakeup(env, proc(env))
    env.run(until=100)
    assert env.now == 100


def test_run_until_past_time_raises():
    env = Environment(initial_time=50)
    with pytest.raises(ValueError):
        env.run(until=10)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_events_processed_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, name):
        yield delay
        order.append(name)

    LoopWakeup(env, proc(env, 30, "c"))
    LoopWakeup(env, proc(env, 10, "a"))
    LoopWakeup(env, proc(env, 20, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(env, name):
        yield 5
        order.append(name)

    for name in ("first", "second", "third"):
        LoopWakeup(env, proc(env, name))
    env.run()
    assert order == ["first", "second", "third"]


def test_negative_timeout_rejected():
    env = Environment()
    LoopWakeup(env, iter([-1]))
    with pytest.raises(ValueError, match="negative delay"):
        env.run()


def test_unhandled_process_exception_propagates():
    env = Environment()

    def broken(env):
        yield 1
        raise RuntimeError("boom")

    LoopWakeup(env, broken(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert env.now == 1


def test_run_without_until_drains_queue():
    env = Environment()

    def proc(env):
        for _ in range(3):
            yield 1

    LoopWakeup(env, proc(env))
    env.run()
    assert env.now == 3
