"""Event primitives for the discrete-event kernel.

Events follow a small life cycle:

* *pending* — created but not yet scheduled to fire.
* *triggered* — scheduled on the environment's event queue with a value or an
  exception attached.
* *processed* — the environment has popped the event and run its callbacks.

Processes are themselves events (they succeed with the value returned by the
wrapped generator), which allows ``yield env.process(...)``.  A generator that
only ever waits for time can run as a :class:`Wakeup` instead: one bare heap
entry per wake-up, without a resume or a timeout event.  Traffic sources run
as plain wake-ups, every piconet master's TDD loop as a :class:`LoopWakeup`,
which resumes without the heap round trip whenever nothing else is due
first.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Generator, List, Optional


class Event:
    """A single occurrence that processes can wait for.

    Parameters
    ----------
    env:
        The :class:`~repro.sim.engine.Environment` the event belongs to.
    """

    PENDING = object()

    def __init__(self, env):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = Event.PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has a value/exception attached."""
        return self._value is not Event.PENDING

    @property
    def processed(self) -> bool:
        """Whether the environment has already run the callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception when it failed)."""
        if self._value is Event.PENDING:
            raise AttributeError("value of untriggered event is not available")
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after it was created."""

    def __init__(self, env, delay, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # the hottest constructor of every run: Event.__init__ and
        # Environment._schedule inlined, with the same fields and eid
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env._now + delay, eid, self))


class Wakeup:
    """A lighter :class:`Process` for a generator yielding only delays.

    Each heap entry ``(time, id, wakeup)`` runs one callback that
    advances the generator and re-arms the wake-up at ``now + delay``.
    The first entry is pushed at creation, so times and event ids match a
    process yielding ``env.timeout(delay)``: the first entry takes the id
    the process's start event took, each re-arming the id of one timeout.
    A finished generator schedules nothing; an exception inside it
    propagates out of :meth:`Environment.step`.  Nothing can wait on a
    wake-up.

    A plain ``Wakeup`` promises that firing it only offers packets and
    re-arms itself (traffic sources), so a :class:`LoopWakeup` may fire
    it inline; a generator that does more runs as a ``LoopWakeup``.
    """

    __slots__ = ("env", "callbacks", "_hooks", "_next")
    _ok = True

    def __init__(self, env, generator: Generator):
        self.env = env
        self._next = generator.__next__
        # one list serves every arming: step() swaps it out before firing
        self._hooks = self.callbacks = [self._fire]
        env._schedule(self)

    def _fire(self, _wakeup) -> None:
        try:
            delay = self._next()
        except StopIteration:
            return
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        env = self.env
        self.callbacks = self._hooks
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env._now + delay, eid, self))


class LoopWakeup(Wakeup):
    """A :class:`Wakeup` that skips its heap round trip when it can.

    It drives a piconet master's TDD loop.  After each step it takes the
    event id re-arming would take and looks at the heap top: a plain
    :class:`Wakeup` that sorts before ``(when, id)`` fires inline through
    :meth:`Environment.step`; anything else that sorts before it gets the
    entry pushed and waits its turn; when nothing does, the clock moves
    to ``when`` and the generator resumes at once.  So times, event ids
    and the order of every callback are those of the heap path, and so
    is the heap when an inline wake-up raises: the entry is pushed
    before the exception leaves.
    """

    __slots__ = ()

    def _fire(self, _wakeup) -> None:
        env = self.env
        queue = env._queue
        step = env.step
        advance = self._next
        while True:
            try:
                delay = advance()
            except StopIteration:
                return
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            when = env._now + delay
            eid = env._eid
            env._eid = eid + 1
            key = (when, eid)
            while queue and queue[0] < key:
                if queue[0][2].__class__ is not Wakeup:
                    self.callbacks = self._hooks
                    heappush(queue, (when, eid, self))
                    return
                try:
                    step()
                except BaseException:
                    self.callbacks = self._hooks
                    heappush(queue, (when, eid, self))
                    raise
            env._now = when


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    def __init__(self, env, process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self)


class Process(Event):
    """Wraps a generator and drives it by the events it yields.

    A process finishes when its generator returns; the process event then
    succeeds with the generator's return value.  If the generator raises,
    the process event fails with that exception.
    """

    def __init__(self, env, generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        Initialize(env, self)

    # -- driving ------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env._schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env._schedule(self)
                break

            if not isinstance(next_event, Event):
                # thrown back into the generator through the try above: what
                # it yields next is waited for, an uncaught error fails it
                event = _thrown(env, TypeError(
                    f"process yielded a non-event: {next_event!r}"))
                continue
            if next_event.env is not env:
                event = _thrown(env, ValueError(
                    "yielded event belongs to another environment"))
                continue

            if next_event.callbacks is not None:
                # Not yet processed: wait for it.
                next_event.callbacks.append(self._resume)
                break
            # Already processed: continue immediately with its outcome.
            event = next_event


def _thrown(env, exception: BaseException) -> Event:
    """An unscheduled, failed event: resuming a process with it throws
    ``exception`` into the generator."""
    event = Event(env)
    event._ok = False
    event._value = exception
    return event
