"""Tests of event primitives: processes, their failures and wake-ups."""

import pytest

from repro.sim import Environment
from repro.sim.events import Wakeup


def test_event_value_unavailable_until_triggered():
    env = Environment()

    def quick(env):
        yield env.timeout(1)
        return "v"

    process = env.process(quick(env))
    with pytest.raises(AttributeError):
        _ = process.value
    env.run()
    assert process.value == "v"


def test_failed_event_raises_in_waiting_process():
    env = Environment()
    seen = []

    def failing(env):
        yield env.timeout(1)
        raise ValueError("broken")

    def waiter(env, child):
        try:
            yield child
        except ValueError as exc:
            seen.append((str(exc), env.now))

    env.process(waiter(env, env.process(failing(env))))
    env.run()
    assert seen == [("broken", 1)]


def test_process_is_alive_until_done():
    env = Environment()

    def quick(env):
        yield env.timeout(5)

    process = env.process(quick(env))
    assert not process.triggered
    env.run()
    assert process.triggered and process.ok


def test_yielding_non_event_raises_type_error():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(TypeError):
        env.run()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_process_that_catches_a_bad_yield_waits_for_its_next_event():
    env = Environment()
    log = []

    def recovering(env):
        try:
            yield 42
        except TypeError as exc:
            log.append(("caught", env.now, "non-event" in str(exc)))
        yield env.timeout(100)
        log.append(("woke", env.now))

    process = env.process(recovering(env))
    env.run()
    assert log == [("caught", 0, True), ("woke", 100)]
    assert process.triggered and process.ok


def test_process_that_catches_a_foreign_event_waits_for_its_next_event():
    env, other = Environment(), Environment()
    log = []

    def recovering(env):
        try:
            yield other.timeout(5)
        except ValueError as exc:
            log.append(("caught", env.now, "another environment" in str(exc)))
        yield env.timeout(100)
        log.append(("woke", env.now))
        return "done"

    process = env.process(recovering(env))
    env.run()
    assert process.value == "done"
    assert log == [("caught", 0, True), ("woke", 100)]


def test_uncaught_bad_yield_fails_the_process_and_aborts_the_run():
    env = Environment()

    def bad(env):
        yield env.timeout(3)
        yield "not an event"

    process = env.process(bad(env))
    with pytest.raises(TypeError, match="non-event"):
        env.run()
    assert process.triggered
    assert not process.ok
    assert isinstance(process.value, TypeError)
    assert env.now == 3


def test_waiter_sees_the_failure_of_a_process_with_a_bad_yield():
    env = Environment()
    seen = []

    def bad(env):
        yield None

    def waiter(env, child):
        try:
            yield child
        except TypeError:
            seen.append(env.now)

    env.process(waiter(env, env.process(bad(env))))
    env.run()
    assert seen == [0]


# -- wake-ups: generators of delays, fired straight from the heap -------------

def _delays(env, log, tag, delays, as_timeouts):
    for delay in delays:
        log.append((tag, env.now))
        yield env.timeout(delay) if as_timeouts else delay
    log.append((tag, env.now))


def test_wakeup_fires_in_the_heap_order_of_an_equivalent_process():
    def interleaving(as_wakeup):
        env = Environment()
        log = []
        for tag, delays in (("a", [2, 0, 3, 1]), ("b", [2, 1, 2, 0]),
                            ("c", [0, 5])):
            generator = _delays(env, log, tag, delays, not as_wakeup)
            if as_wakeup:
                Wakeup(env, generator)
            else:
                env.process(generator)
        env.run()
        return log

    # ties at t=0, 2, 3 and 5 resolve by event id in both variants
    assert interleaving(True) == interleaving(False)


def test_finished_wakeup_schedules_nothing():
    env = Environment()
    log = []
    Wakeup(env, _delays(env, log, "a", [4, 4], as_timeouts=False))
    env.run()
    assert log == [("a", 0), ("a", 4), ("a", 8)]
    assert env._queue == []
    assert env._eid == 3  # the first arming and two re-arms


def test_wakeup_rejects_a_negative_delay_at_its_time():
    env = Environment()
    Wakeup(env, iter([7, -1]))
    with pytest.raises(ValueError, match="negative delay -1"):
        env.run()
    assert env.now == 7
