"""Tests of the heap entries: wake-ups, their failures and their order."""

import pytest

from repro.sim import Environment
from repro.sim.events import Wakeup


def _delays(env, log, tag, delays):
    for delay in delays:
        log.append((tag, env.now))
        yield delay
    log.append((tag, env.now))


def test_wakeup_fires_in_the_heap_order_of_an_equivalent_process():
    env = Environment()
    log = []
    for tag, delays in (("a", [2, 0, 3, 1]), ("b", [2, 1, 2, 0]),
                        ("c", [0, 5])):
        Wakeup(env, _delays(env, log, tag, delays))
    fired = []
    while env._queue:
        when, eid, _wakeup = env._queue[0]
        env.step()
        fired.append((log[-1][0], when, eid))
    # (tag, time, event id) of every firing; ties at t=0, 2 and 5
    # resolve by event id.  Recorded when the reference was a process
    # yielding timeout events, which fired in this order too.
    assert fired == [
        ("a", 0, 0), ("b", 0, 1), ("c", 0, 2), ("c", 0, 5), ("a", 2, 3),
        ("b", 2, 4), ("a", 2, 7), ("b", 3, 8), ("c", 5, 6), ("a", 5, 9),
        ("b", 5, 10), ("b", 5, 12), ("a", 6, 11)]
    assert env._eid == 13


def test_finished_wakeup_schedules_nothing():
    env = Environment()
    log = []
    Wakeup(env, _delays(env, log, "a", [4, 4]))
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


def test_uncaught_bad_yield_fails_the_process_and_aborts_the_run():
    # the raising wake-up is dropped: a later run carries on without it
    env = Environment()
    log = []
    Wakeup(env, iter([3, "not a delay", 1]))
    Wakeup(env, _delays(env, log, "ok", [2, 2, 2]))
    with pytest.raises(TypeError):
        env.run()
    assert env.now == 3
    env.run()
    assert env.now == 6
    assert log == [("ok", 0), ("ok", 2), ("ok", 4), ("ok", 6)]


def test_yielding_non_event_raises_type_error():
    # a wake-up waits on delays only: anything else aborts the run at
    # the time it was yielded
    env = Environment()
    Wakeup(env, iter([3, "not a delay"]))
    with pytest.raises(TypeError):
        env.run()
    assert env.now == 3
