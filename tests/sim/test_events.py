"""Tests of the loop wake-ups: their order, their failures and their ids."""

import pytest

from repro.sim import Environment
from repro.sim.events import LoopWakeup


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
        LoopWakeup(env, _delays(env, log, tag, delays))
    env.run()
    # (tag, time) of every firing; ties at t=0, 2 and 5 resolve by event
    # id, whether a wake-up resumed inline or through the heap.  Recorded
    # when the reference was a process yielding timeout events, which
    # fired in this order too (the ids were 0, 1, 2, 5, 3, 4, 7, 8, 6, 9,
    # 10, 12, 11)
    assert log == [
        ("a", 0), ("b", 0), ("c", 0), ("c", 0), ("a", 2), ("b", 2),
        ("a", 2), ("b", 3), ("c", 5), ("a", 5), ("b", 5), ("b", 5),
        ("a", 6)]
    assert env._eid == 13


def test_finished_wakeup_schedules_nothing():
    env = Environment()
    log = []
    LoopWakeup(env, _delays(env, log, "a", [4, 4]))
    env.run()
    assert log == [("a", 0), ("a", 4), ("a", 8)]
    assert env._queue == []
    assert env._eid == 3  # the first arming and two re-arms


def test_wakeup_rejects_a_negative_delay_at_its_time():
    env = Environment()
    LoopWakeup(env, iter([7, -1]))
    with pytest.raises(ValueError, match="negative delay -1"):
        env.run()
    assert env.now == 7


def test_uncaught_bad_yield_fails_the_process_and_aborts_the_run():
    # the raising wake-up is dropped: a later run carries on without it
    env = Environment()
    log = []
    LoopWakeup(env, iter([3, "not a delay", 1]))
    LoopWakeup(env, _delays(env, log, "ok", [2, 2, 2]))
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
    LoopWakeup(env, iter([3, "not a delay"]))
    with pytest.raises(TypeError):
        env.run()
    assert env.now == 3
