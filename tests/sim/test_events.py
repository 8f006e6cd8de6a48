"""Tests of event primitives: success/failure, conditions, interrupts."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, Event, Interrupt
from repro.sim.events import Wakeup


def test_event_cannot_trigger_twice():
    env = Environment()
    event = Event(env)
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_event_value_unavailable_until_triggered():
    env = Environment()
    event = Event(env)
    with pytest.raises(AttributeError):
        _ = event.value
    event.succeed("v")
    assert event.value == "v"


def test_fail_requires_exception_instance():
    env = Environment()
    event = Event(env)
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_failed_event_raises_in_waiting_process():
    env = Environment()
    event = Event(env)
    seen = []

    def waiter(env):
        try:
            yield event
        except ValueError as exc:
            seen.append(str(exc))

    def trigger(env):
        yield env.timeout(1)
        event.fail(ValueError("broken"))

    env.process(waiter(env))
    env.process(trigger(env))
    env.run()
    assert seen == ["broken"]


def test_all_of_waits_for_every_event():
    env = Environment()
    finish_times = []

    def waiter(env):
        yield AllOf(env, [env.timeout(5), env.timeout(9), env.timeout(2)])
        finish_times.append(env.now)

    env.process(waiter(env))
    env.run()
    assert finish_times == [9]


def test_any_of_fires_at_first_event():
    env = Environment()
    finish_times = []

    def waiter(env):
        yield AnyOf(env, [env.timeout(5), env.timeout(9), env.timeout(2)])
        finish_times.append(env.now)

    env.process(waiter(env))
    env.run()
    assert finish_times == [2]


def test_all_of_empty_list_fires_immediately():
    env = Environment()
    condition = AllOf(env, [])
    assert condition.triggered


def test_interrupt_raises_inside_process():
    env = Environment()
    causes = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            causes.append(interrupt.cause)
            causes.append(env.now)

    def interrupter(env, victim):
        yield env.timeout(10)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert causes == ["wake up", 10]


def test_cannot_interrupt_finished_process():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    process = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        process.interrupt()


def test_process_is_alive_until_done():
    env = Environment()

    def quick(env):
        yield env.timeout(5)

    process = env.process(quick(env))
    assert process.is_alive
    env.run()
    assert not process.is_alive


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
    assert process.ok and not process.is_alive


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
    assert env.run(until=process) == "done"
    assert log == [("caught", 0, True), ("woke", 100)]


def test_uncaught_bad_yield_fails_the_process_and_aborts_the_run():
    env = Environment()

    def bad(env):
        yield env.timeout(3)
        yield "not an event"

    process = env.process(bad(env))
    with pytest.raises(TypeError, match="non-event"):
        env.run()
    assert not process.is_alive
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
