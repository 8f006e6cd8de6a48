"""Event primitives for the discrete-event kernel.

Events follow a small life cycle:

* *pending* — created but not yet scheduled to fire.
* *triggered* — scheduled on the environment's event queue with a value or an
  exception attached.
* *processed* — the environment has popped the event and run its callbacks.

Processes are themselves events (they succeed with the value returned by the
wrapped generator), which allows ``yield env.process(...)`` and waiting for
process completion with :class:`AllOf` / :class:`AnyOf`.  A generator that
only ever waits for time can run as a :class:`Wakeup` instead: one bare heap
entry per wake-up, without a resume or a timeout event.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

#: Scheduling priority used for urgent events (interrupts).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class Interrupt(Exception):
    """Raised inside a process that has been interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


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

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every process waiting on the event.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of another (triggered) event onto this one."""
        self._ok = event._ok
        self._value = event._value
        self.env._schedule(self)

    # -- misc ---------------------------------------------------------------
    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

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
        heappush(env._queue, (env._now + delay, NORMAL, eid, self))


class Wakeup:
    """A lighter :class:`Process` for a generator yielding only delays.

    Each heap entry ``(time, NORMAL, id, wakeup)`` runs one callback that
    advances the generator and re-arms the wake-up at ``now + delay``.
    The first entry is pushed at creation, so times, priorities and event
    ids match a process yielding ``env.timeout(delay)``.  A finished
    generator schedules nothing; an exception inside it propagates out of
    :meth:`Environment.step`.  Nothing can wait on a wake-up.
    """

    __slots__ = ("env", "callbacks", "_hooks", "_next")
    _ok = True
    _defused = False

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
        heappush(env._queue, (env._now + delay, NORMAL, eid, self))


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
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """``True`` while the wrapped generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process: raise :class:`Interrupt` inside it."""
        if self.triggered:
            raise RuntimeError("cannot interrupt a finished process")
        if self is self.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        # Deliver before anything else scheduled for the same instant.
        event.callbacks.append(self._resume)
        self.env._schedule(event, priority=URGENT)

    # -- driving ------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._value is not Event.PENDING:
            # Already finished (e.g. interrupted after completion race).
            return
        env = self.env
        env._active_process = self
        # Detach from the previous target (relevant for interrupts).
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
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
                self._target = next_event
                break
            # Already processed: continue immediately with its outcome.
            event = next_event

        env._active_process = None


def _thrown(env, exception: BaseException) -> Event:
    """An unscheduled, failed event: resuming a process with it throws
    ``exception`` into the generator."""
    event = Event(env)
    event._ok = False
    event._value = exception
    return event


class Condition(Event):
    """Waits for a combination of events (base class for AllOf / AnyOf)."""

    def __init__(self, env, events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise ValueError("all events must share one environment")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _evaluate(self, done_count: int) -> bool:
        raise NotImplementedError

    def _collect(self) -> dict:
        return {
            event: event._value
            for event in self._events
            if event.triggered and event._ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._count):
            self.succeed(self._collect())


class AllOf(Condition):
    """Succeeds once *all* the given events have succeeded."""

    def _evaluate(self, done_count: int) -> bool:
        return done_count >= len(self._events)


class AnyOf(Condition):
    """Succeeds as soon as *any* of the given events has succeeded."""

    def _evaluate(self, done_count: int) -> bool:
        return done_count >= 1
