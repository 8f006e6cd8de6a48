"""The heap path, the oracle of the loop bypass.

A :class:`~repro.sim.events.LoopWakeup` promises the firing order, event
ids and heap of a wake-up that re-arms through the heap after every
resume.  :func:`heap_path_fire` is that plain wake-up.  Patched in as
``LoopWakeup._fire`` (``monkeypatch.setattr(LoopWakeup, "_fire",
heap_path_fire)``), it makes every master and timeline runner re-arm
through the heap and every traffic source fire from
:meth:`~repro.sim.engine.Environment.step`; the equivalence tests
compare a run so patched with the bypassed one.
"""

from heapq import heappush


def heap_path_fire(self) -> None:
    """Resume the generator once and re-arm at ``now + delay`` with the
    next event id; a finished generator schedules nothing."""
    try:
        delay = self._next()
    except StopIteration:
        return
    if delay < 0:
        raise ValueError(f"negative delay {delay}")
    env = self.env
    heappush(env._queue, (env._now + delay, env._eid, self))
    env._eid += 1
