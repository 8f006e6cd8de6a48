"""The slot-batch fast path: plan / execute / commit without the heapq.

Every experiment in the repo funnels through the per-slot generator/heapq
event loop — yet in steady state (no SCO reservation boundary, no bridge
presence change, no pending adaptive-segmentation flip) a poll transaction
is fully determined the moment the poller plans it: the packets come from
idempotent queue peeks, the channel outcome from the per-link RNG streams,
and the only events that can interleave before the transaction ends are
traffic-source wake-ups, which merely offer packets.  The
:class:`BatchKernel` exploits exactly that window:

* **plan** — the poller's :class:`~repro.schedulers.base.TransactionPlan`
  plus the steady-state detector below decide whether the next transaction
  may run inline;
* **execute** — the kernel drives the *same* commit helpers the event loop
  uses (:meth:`Piconet._begin_transaction` / ``_apply_downlink`` /
  ``_finish_transaction``), so both paths perform literally the same
  Python operations in the same order, consuming the same RNG draws from
  the same :class:`~repro.sim.rng.RandomStreams` substreams — results are
  byte-identical by construction, only the master's suspensions (the
  re-armings of its :class:`~repro.sim.events.LoopWakeup`, one heap entry
  each) are elided.  The memoized FEC tables
  (:mod:`repro.baseband.fec`) and the Gilbert-Elliott closed-form n-step
  advance (:meth:`GilbertElliottChannel._advance_to`) keep the per-packet
  channel work constant-time inside the window;
* **absorb** — before each elided master wake-up (downlink end, uplink
  end, idle end) the kernel reserves the event id the wake-up would have
  taken and fires, through :meth:`Environment.step`, every queued event
  whose ``(time, id)`` key sorts before the wake-up's.  Only
  *absorbable* events can sort there (see :func:`absorbable`): traffic
  sources' plain :class:`~repro.sim.events.Wakeup` entries and no-op
  events nobody waits on.  So arrivals land in exactly the heap order of the
  reference loop, and every later tie breaks the same way because the id
  counter advances identically;
* **commit** — deliveries, ARQ failures, EWMA link-quality updates and
  slot accounting land on :class:`FlowState` through those same helpers,
  and the clock steps to the commit instant.

Steady-state / bailout conditions (the kernel hands the step back to the
event loop the moment any of them trips):

* the piconet has SCO reservations (``sco``) — reservation boundaries
  pre-empt ACL mid-window;
* any slave has a bridge presence schedule (``bridge``) — presence can
  change between the two directions of one transaction;
* the transaction (its exact peeked packets, both directions) would not
  end *strictly before* the next event the kernel cannot absorb
  (``horizon``): another master's wake-up, a timeline runner, the stop
  event of ``Environment.run(until=...)``.  An event at the
  exact end time must fire before the master resumes (it was pushed
  earlier, so it wins the heap's insertion-order tie-break).  Absorbed
  events never schedule one (a source only re-arms its own wake-up), so
  the horizon found when a window opens holds for the whole window;
* a channel-adaptive segmentation policy flipped its type set during an
  inline transaction (``adaptive_flip``) — the next step runs on the
  reference path;
* the piconet signalled a topology change (``topology``) — a timeline
  event parked/unparked a slave, attached or detached a flow, or
  re-registered a bridge presence schedule.  The event itself always
  fires on the event loop (the horizon check keeps windows strictly
  before it), but the first step *after* it runs on the reference path
  so everything the kernel derives from the topology is revalidated.

``PiconetSpec.fast_path`` (default on, compiled into
``PiconetConfig.fast_path``) selects the kernel; the
``REPRO_NO_FAST_PATH`` environment variable forces the reference event
loop in this process *and* in any worker processes it spawns.
"""

from __future__ import annotations

import os

from repro.baseband.constants import SLOT_US
from repro.schedulers.base import TransactionPlan
from repro.sim.events import Wakeup

#: environment variable forcing the reference event loop everywhere
NO_FAST_PATH_ENV = "REPRO_NO_FAST_PATH"

_INFINITY = float("inf")
#: air time of the shortest transaction, a POLL answered by a NULL
_SHORTEST_US = 2 * SLOT_US


def fast_path_disabled() -> bool:
    """Whether the process-wide escape hatch ``REPRO_NO_FAST_PATH`` is set."""
    return bool(os.environ.get(NO_FAST_PATH_ENV))


def absorbable(event) -> bool:
    """Whether a window may fire ``event`` inline (see the module notes).

    True for a plain :class:`~repro.sim.events.Wakeup` (a traffic
    source: it offers packets and re-arms itself, nothing waits on it)
    and for a successful event nobody waits on (a finished timeline
    process: firing it changes nothing but the clock).  Never true for a
    master's :class:`~repro.sim.events.LoopWakeup`, which the exact class
    test excludes: its step may run a whole transaction.  A failed event
    is never absorbable: it must abort the run from the event loop.
    """
    return event.__class__ is Wakeup or (
        event._ok and not event.callbacks)


class _IdleSentinel:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<BatchKernel.IDLE>"


class BatchKernel:
    """Advances windows of poll rounds inline, off the event queue.

    One instance serves one :class:`~repro.piconet.piconet.Piconet`; the
    master loop offers it every planned transaction and every idle step,
    and falls back to the per-slot generator path whenever the kernel
    declines.  All counters are observable via :meth:`stats` (surfaced as
    ``Piconet.fast_path_stats()``; deliberately *not* part of
    ``slot_accounting()``, whose keys golden fixtures pin).
    """

    #: returned by :meth:`run` when the poller ran out of plans and the
    #: idle step itself must run on the event loop
    IDLE = _IdleSentinel()

    __slots__ = ("piconet", "windows", "transactions", "idle_advances",
                 "bailouts", "_in_window", "_force_slow", "_topology_dirty")

    def __init__(self, piconet):
        self.piconet = piconet
        #: maximal contiguous runs of inline steps
        self.windows = 0
        #: transactions executed inline
        self.transactions = 0
        #: idle steps taken inline
        self.idle_advances = 0
        #: why windows ended / steps were declined, by reason
        self.bailouts = {"sco": 0, "bridge": 0, "horizon": 0,
                         "adaptive_flip": 0, "topology": 0}
        self._in_window = False
        self._force_slow = False
        self._topology_dirty = False

    def notify_topology_change(self) -> None:
        """A timeline event changed the piconet's topology: the next step
        runs on the reference event loop (one ``topology`` bailout)."""
        self._topology_dirty = True

    # -- plan: the steady-state detector -------------------------------------
    def _bail(self, reason: str) -> None:
        self.bailouts[reason] += 1
        self._in_window = False

    def _steady(self) -> bool:
        """Whether the next step may run inline; books the bailout if not.

        Event-dense scenarios decline here on almost every step, so
        nothing in it may loop or allocate.
        """
        if self._force_slow:
            self._force_slow = False
            return False
        if self._topology_dirty:
            self._topology_dirty = False
            self._bail("topology")
            return False
        piconet = self.piconet
        if piconet.sco_table._links:
            self._bail("sco")
            return False
        if piconet._bridge_presence:
            self._bail("bridge")
            return False
        return True

    @staticmethod
    def _plan_duration_us(states, plan: TransactionPlan) -> int:
        """Exact air time of the transaction ``plan`` would start *now*.

        The packets are fully determined by the same (idempotent) queue
        peeks :meth:`Piconet._begin_transaction` performs — a missing
        segment means a 1-slot POLL/NULL — so this is the precise duration,
        not a bound: channel outcomes never change a transaction's length,
        only whether the segments stay queued for ARQ.
        """
        dl_state = states.get(plan.dl_flow_id)  # no flow has id None
        ul_state = states.get(plan.ul_flow_id)
        dl_segment = (dl_state.queue.peek_segment()
                      if dl_state is not None else None)
        ul_segment = (ul_state.queue.peek_segment()
                      if ul_state is not None else None)
        slots = ((dl_segment.ptype.slots if dl_segment is not None else 1)
                 + (ul_segment.ptype.slots if ul_segment is not None else 1))
        return slots * SLOT_US

    # -- execute / commit ------------------------------------------------------
    @staticmethod
    def _horizon(env, end):
        """Time of the next event a window cannot absorb, or ``None`` when
        a step ending at ``end`` cannot run inline (``horizon``).

        The search for a blocking event visits only queued events due by
        ``end`` (a heap's subtree never holds an earlier key than its
        root), so it declines in O(1) when the heap top is one.  Only a
        step that may run is followed by the full scan for the horizon:
        in the coupled room a source wake-up often tops the heap while
        another master is due, and a full scan per declined step cost a
        quarter of that workload's slots per second.  A window with no
        such event ahead would never end, so that declines too.
        """
        queue = env._queue
        if not queue:
            return None
        if queue[0][0] <= end:
            size = len(queue)
            pending = [0]
            while pending:
                index = pending.pop()
                entry = queue[index]
                if entry[0] <= end:
                    if not absorbable(entry[2]):
                        return None
                    child = 2 * index + 1
                    if child < size:
                        pending.append(child)
                        if child + 1 < size:
                            pending.append(child + 1)
        horizon = min((entry[0] for entry in queue
                       if not absorbable(entry[2])), default=_INFINITY)
        return None if horizon == _INFINITY else horizon

    @staticmethod
    def _absorb(env, when) -> None:
        """Fire every queued event that sorts before the master wake-up
        the reference loop would schedule now for ``when``, then move the
        clock to ``when``.

        The wake-up's event id is reserved first (``env._eid += 1``), so
        the ids of everything scheduled later match the reference loop.
        The caller's horizon check guarantees every event below the key
        is absorbable; none of them resumes a process or a master.
        """
        eid = env._eid
        env._eid = eid + 1
        queue = env._queue
        bound = (when, eid)
        if queue[0] < bound:
            step = env.step
            while queue[0] < bound:
                step()
        env._now = when

    def try_idle(self) -> bool:
        """Take the master's idle step inline if the horizon allows it."""
        if not self._steady():
            return False
        piconet = self.piconet
        env = piconet.env
        now = env.now
        if piconet.config.align_even_slots:
            advance = 2 if (now // SLOT_US) % 2 == 0 else 1
        else:
            advance = 1
        end = now + advance * SLOT_US
        if self._horizon(env, end) is None:
            self._bail("horizon")
            return False
        piconet.slots_idle += advance
        self._absorb(env, end)
        self.idle_advances += 1
        if not self._in_window:
            self._in_window = True
            self.windows += 1
        return True

    def run(self, plan: TransactionPlan):
        """Consume ``plan`` and as many follow-up steps as possible inline.

        Returns ``None`` when every step up to the horizon was executed
        inline (the master just continues its loop), :data:`IDLE` when the
        poller ran out of plans and the idle step itself cannot be taken
        inline, or the unconsumed :class:`TransactionPlan` the master must
        execute on the reference event-loop path.  A plan is never
        select-ed speculatively and discarded: pollers mutate state in
        ``select`` (fairness indices, uplink rotation), so whatever the
        kernel cannot execute is handed back for the event loop to run.

        The window writes ``env._now`` directly to jump the clock: after
        absorbing, nothing queued sorts before the commit instant, and the
        per-step horizon check (against the exact transaction duration)
        keeps every jump strictly before the next event the window cannot
        absorb, so no jump moves backwards or passes a pending event.
        """
        if not self._steady():
            return plan
        piconet = self.piconet
        env = piconet.env
        queue = env._queue
        if (queue and queue[0][0] <= env._now + _SHORTEST_US
                and not absorbable(queue[0][2])):
            # a blocking event is due before even a POLL/NULL exchange
            # could end, whatever the plan: decline before peeking
            self._bail("horizon")
            return plan
        states = piconet._states
        horizon = self._horizon(
            env, env._now + self._plan_duration_us(states, plan))
        if horizon is None:
            self._bail("horizon")
            return plan
        poller = piconet.poller
        adaptive = piconet.config.adaptive_segmentation
        align = piconet.config.align_even_slots
        # the table's backing list: mutations (impossible mid-window, but
        # checked anyway) are visible through the reference, sans __len__
        sco_links = piconet.sco_table._links
        bridge_presence = piconet._bridge_presence
        plan_duration = self._plan_duration_us
        # a step even the longest transaction the flows can make (both
        # directions at the policies' largest type) cannot push to the
        # horizon needs no exact duration
        longest = 2 * SLOT_US * max(
            [state.queue.policy.max_segment_slots()
             for state in states.values()], default=1)
        # every queued id is below the one an elided wake-up reserves, so
        # an entry sorts before the wake-up exactly when it is due by its
        # time: when none is (queue[0][0] > end), a step only takes the id
        # and moves the clock, without the _absorb call (the queue is never
        # empty: the horizon event stays on it)
        absorb = self._absorb
        begin = piconet._begin_transaction
        apply_downlink = piconet._apply_downlink
        finish = piconet._finish_transaction
        select = poller.select
        transactions = 0
        idles = 0
        bail_reason = "horizon"
        before = None
        while True:
            if sco_links or bridge_presence or self._topology_dirty:
                if sco_links:
                    bail_reason = "sco"
                elif bridge_presence:
                    bail_reason = "bridge"
                else:
                    bail_reason = "topology"
                    self._topology_dirty = False
                if plan is None:
                    plan = self.IDLE
                break
            now = env._now
            if plan is None:
                # the poller idles: mirror Piconet._idle inline
                if align:
                    advance = 2 if (now // SLOT_US) % 2 == 0 else 1
                else:
                    advance = 1
                end = now + advance * SLOT_US
                if end >= horizon:
                    plan = self.IDLE
                    break
                piconet.slots_idle += advance
                if queue[0][0] <= end:
                    absorb(env, end)
                else:
                    env._eid += 1
                    env._now = end
                idles += 1
                plan = select(end)
                continue
            if (now + longest >= horizon
                    and now + plan_duration(states, plan) >= horizon):
                break
            if adaptive:
                before = self._adaptive_snapshot(states, plan)
            # .ptype.slots * SLOT_US == .duration_us, minus two property hops
            txn = begin(plan)
            end = now + txn.dl_packet.ptype.slots * SLOT_US
            if queue[0][0] <= end:
                absorb(env, end)
            else:
                env._eid += 1
                env._now = end
            apply_downlink(txn)
            end = txn.ul_start + txn.ul_packet.ptype.slots * SLOT_US
            if queue[0][0] <= end:
                absorb(env, end)
            else:
                env._eid += 1
                env._now = end
            finish(txn)
            transactions += 1
            if adaptive and self._adaptive_snapshot(states, plan) != before:
                # steady state broke mid-window: the next step runs on
                # the per-slot reference path
                bail_reason = "adaptive_flip"
                self._force_slow = True
                plan = None
                break
            plan = select(end)
        self.transactions += transactions
        self.idle_advances += idles
        if (transactions or idles) and not self._in_window:
            self.windows += 1
            self._in_window = True
        self._bail(bail_reason)
        return plan

    @staticmethod
    def _adaptive_snapshot(states, plan: TransactionPlan):
        """The robust/fast mode of the policies a plan touches."""
        modes = []
        for flow_id in (plan.dl_flow_id, plan.ul_flow_id):
            state = states.get(flow_id) if flow_id is not None else None
            if state is not None:
                modes.append(getattr(state.queue.policy, "robust_active",
                                     None))
            else:
                modes.append(None)
        return modes

    # -- observability ---------------------------------------------------------
    def stats(self) -> dict:
        """Window / bailout counters of this kernel."""
        return {
            "windows": self.windows,
            "transactions": self.transactions,
            "idle_advances": self.idle_advances,
            "bailouts": dict(self.bailouts),
        }
