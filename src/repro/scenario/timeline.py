"""Materialise a :class:`~repro.scenario.specs.TimelineSpec` at runtime.

:func:`install_timeline` turns the ordered, validated
:class:`~repro.scenario.specs.EventSpec` list of a compiled scenario into
simulation processes on the shared clock: one process per event, created
in spec order, so events landing on the same instant fire in spec order
(the environment breaks time ties by insertion).  Each process sleeps
until its ``at_s``, performs the event against the runtime objects, and
appends an outcome record to ``CompiledScenario.timeline_log`` — the
row-visible trace the ``churn_recovery`` experiment (and any driver)
reads back.

Timeline runners are processes, not traffic sources, so a master's
:class:`~repro.sim.events.LoopWakeup` never fires them inline: whenever
one is due before the master's next step, the master goes back on the
heap and the runner fires from :meth:`~repro.sim.engine.Environment.step`.

Event semantics
---------------
``park`` / ``unpark``
    The slave's flow states leave / rejoin the master loop
    (:meth:`~repro.piconet.piconet.Piconet.park_slave`); admitted GS flows
    of the slave are withdrawn from the manager at park (their reservation
    is released) and re-submitted to admission at unpark — re-admission
    can fail if the capacity was taken while the slave was away.
``bridge-roam``
    The bridge's residency is re-divided to the event's ``share_a``
    (:meth:`~repro.piconet.scatternet.Scatternet.roam_bridge`).
``flow-add``
    A new flow (with its CBR source) joins mid-run; GS flows run through
    admission first and are detached again when rejected.
``flow-remove``
    The flow's source stops, its GS reservation (if any) is withdrawn,
    and its state detaches from the master loop.
``flow-renegotiate``
    Bounded retry loop: every ``backoff_s`` the manager's
    :meth:`~repro.core.gs_manager.GuaranteedServiceManager.flagged_flows`
    is consulted (with the event's ``min_observations`` / ``tolerance``);
    once the flow is flagged it renegotiates — raising its budget to the
    measured loss — and either re-admits or is evicted (the eviction hook
    installed here fully detaches it).  After ``max_retries`` unflagged
    checks the event gives up.
``interferer-on`` / ``interferer-off``
    The field's duty-cycle interferer is switched from the event slot
    forward; the field's occupancy index from that slot is
    invalidated (:meth:`~repro.baseband.interference.InterferenceField.
    set_interferer_enabled`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.baseband.constants import SLOT_US
from repro.core.token_bucket import cbr_tspec
from repro.piconet.flows import FlowSpec as RuntimeFlowSpec
from repro.scenario.specs import EventSpec, FlowSpec
from repro.sim.rng import RandomStreams
from repro.traffic.sources import CBRSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.scenario.compile import CompiledPiconet, CompiledScenario

_US_PER_SECOND = 1_000_000


def _to_us(seconds: float) -> int:
    return int(round(seconds * _US_PER_SECOND))


def install_timeline(compiled: "CompiledScenario") -> None:
    """Install one simulation process per timeline event of ``compiled``.

    A no-op for scenarios with an empty timeline: no processes are
    created, no hooks registered — the compiled scenario is byte-identical
    to one built before timelines existed.
    """
    timeline = compiled.spec.timeline
    if not timeline:
        return
    default = compiled.spec.piconets[0].name
    hooked = set()
    for index, event in enumerate(timeline.events):
        target = compiled.piconets[
            event.piconet if event.piconet is not None else default]
        if (event.kind == "flow-renegotiate" and target.manager is not None
                and target.spec.name not in hooked):
            # a rejected renegotiation must fully detach the evicted flow
            # (state, queued segments, poller bookkeeping, source)
            target.manager.add_eviction_hook(_eviction_hook(target))
            hooked.add(target.spec.name)
        compiled.env.process(_runner(compiled, target, event, index))


def _eviction_hook(cp: "CompiledPiconet"):
    def hook(flow_id: int, _setup) -> None:
        for source in cp.sources:
            if source.flow_id == flow_id:
                source.stop()
        if flow_id in cp.piconet._states:
            cp.piconet.detach_flow(flow_id)
    return hook


def _runner(compiled: "CompiledScenario", cp: "CompiledPiconet",
            event: EventSpec, index: int):
    """The generator driving one event (a simulation process)."""
    env = compiled.env
    delay = _to_us(event.at_s) - env.now
    if delay > 0:
        yield env.timeout(delay)
    record = {"index": index, "at_s": event.at_s, "kind": event.kind,
              "piconet": cp.spec.name}
    if event.kind == "park":
        _run_park(cp, event, record)
    elif event.kind == "unpark":
        _run_unpark(cp, event, record)
    elif event.kind == "bridge-roam":
        _run_roam(compiled, event, record)
    elif event.kind == "flow-add":
        _run_flow_add(compiled, cp, event, record)
    elif event.kind == "flow-remove":
        _run_flow_remove(cp, event, record)
    elif event.kind in ("interferer-on", "interferer-off"):
        _run_interferer(compiled, event, record)
    else:  # flow-renegotiate: the only event that sleeps internally
        yield from _run_renegotiate(compiled, cp, event, record)
    compiled.timeline_log.append(record)


def _now_s(cp: "CompiledPiconet") -> float:
    return cp.piconet.env.now / _US_PER_SECOND


def _run_park(cp: "CompiledPiconet", event: EventSpec, record: dict) -> None:
    withdrawn: List[int] = []
    if cp.manager is not None:
        now_s = _now_s(cp)
        for flow_id in list(cp.manager.admitted_flow_ids()):
            if cp.manager.setup(flow_id).spec.slave == event.slave:
                cp.parked_gs_setups[flow_id] = cp.manager.withdraw_flow(
                    flow_id, now_s)
                withdrawn.append(flow_id)
    states = cp.piconet.park_slave(event.slave)
    record.update(slave=event.slave,
                  parked_flows=[state.spec.flow_id for state in states],
                  gs_withdrawn=withdrawn)


def _run_unpark(cp: "CompiledPiconet", event: EventSpec,
                record: dict) -> None:
    states = cp.piconet.unpark_slave(event.slave)
    readmitted: Dict[int, bool] = {}
    if cp.manager is not None:
        now_s = _now_s(cp)
        for flow_id in sorted(cp.parked_gs_setups):
            setup = cp.parked_gs_setups[flow_id]
            if setup.spec.slave != event.slave:
                continue
            del cp.parked_gs_setups[flow_id]
            if setup.requested_delay_bound is not None:
                renewed = cp.manager.add_flow(
                    setup.spec, setup.tspec,
                    delay_bound=setup.requested_delay_bound,
                    start_time=now_s)
            else:
                renewed = cp.manager.add_flow(
                    setup.spec, setup.tspec, rate=setup.request.rate,
                    start_time=now_s)
            cp.gs_setups[flow_id] = renewed
            readmitted[str(flow_id)] = renewed.accepted
    record.update(slave=event.slave,
                  unparked_flows=[state.spec.flow_id for state in states],
                  gs_readmitted=readmitted)


def _run_roam(compiled: "CompiledScenario", event: EventSpec,
              record: dict) -> None:
    bridge = compiled.scatternet.roam_bridge(event.bridge, event.share_a)
    record.update(bridge=event.bridge, share_a=bridge.schedule.share_a)


def _runtime_flow_spec(cp: "CompiledPiconet",
                       flow: FlowSpec) -> RuntimeFlowSpec:
    return RuntimeFlowSpec(
        flow.flow_id, slave=flow.slave, direction=flow.direction,
        traffic_class=flow.traffic_class,
        allowed_types=(flow.allowed_types if flow.allowed_types is not None
                       else cp.spec.allowed_types))


def _run_flow_add(compiled: "CompiledScenario", cp: "CompiledPiconet",
                  event: EventSpec, record: dict) -> None:
    flow = event.flow
    runtime = _runtime_flow_spec(cp, flow)
    state = cp.piconet.add_flow_runtime(runtime)
    record.update(flow_id=flow.flow_id, slave=flow.slave)
    accepted: Optional[bool] = None
    if flow.gs_managed:
        tspec = cbr_tspec(flow.interval_s, *flow.size_bounds)
        now_s = _now_s(cp)
        if flow.delay_bound is not None:
            setup = cp.manager.add_flow(runtime, tspec,
                                        delay_bound=flow.delay_bound,
                                        start_time=now_s)
        else:
            setup = cp.manager.add_flow(runtime, tspec, rate=flow.rate,
                                        start_time=now_s)
        cp.gs_setups[flow.flow_id] = setup
        accepted = setup.accepted
        record["admitted"] = accepted
        if not accepted:
            cp.piconet.detach_flow(flow.flow_id)
            record["reason"] = setup.reason
            return
        cp.gs_flow_ids.append(flow.flow_id)
    elif flow.traffic_class == "BE":
        cp.be_flow_ids.append(flow.flow_id)
    cp.slave_flows.setdefault(flow.slave, []).append(flow.flow_id)
    if flow.interval_s is not None:
        # same stream derivation as compile-time sources: named streams
        # are a pure function of (seed, name), so re-deriving the family
        # here cannot perturb any existing stream
        streams = RandomStreams(compiled.seed)
        if cp.spec.rng_namespace:
            streams = streams.child(cp.spec.rng_namespace)
        rng = (streams.stream(flow.rng_stream)
               if flow.rng_stream is not None else None)
        source = CBRSource(cp.piconet, flow.flow_id, flow.interval_s,
                           flow.size, rng=rng)
        cp.sources.append(source)
        source.start()


def _run_flow_remove(cp: "CompiledPiconet", event: EventSpec,
                     record: dict) -> None:
    flow_id = event.flow_id
    for source in cp.sources:
        if source.flow_id == flow_id:
            source.stop()
    withdrew = False
    if cp.manager is not None and flow_id in cp.manager.admitted_flow_ids():
        cp.manager.withdraw_flow(flow_id, _now_s(cp))
        withdrew = True
    if flow_id in cp.piconet._states:
        cp.piconet.detach_flow(flow_id)
    else:
        # the flow's slave is parked: drop the parked state so unpark
        # does not resurrect a removed flow
        cp.piconet._parked_states.pop(flow_id, None)
    record.update(flow_id=flow_id, gs_withdrawn=withdrew)


def _run_interferer(compiled: "CompiledScenario", event: EventSpec,
                    record: dict) -> None:
    name = f"interferer-{event.interferer}"
    slot = compiled.env.now // SLOT_US
    enabled = event.kind == "interferer-on"
    compiled.interference_field.set_interferer_enabled(name, slot, enabled)
    record.update(interferer=name, enabled=enabled, slot=slot)


def _run_renegotiate(compiled: "CompiledScenario", cp: "CompiledPiconet",
                     event: EventSpec, record: dict):
    env = compiled.env
    record.update(flow_id=event.flow_id)
    attempts = 0
    while True:
        now_s = _now_s(cp)
        flagged = cp.manager.flagged_flows(
            min_observations=event.min_observations,
            tolerance=event.tolerance)
        if event.flow_id in flagged:
            measured = cp.manager.measured_loss(
                cp.manager.setup(event.flow_id).spec.slave,
                cp.manager.setup(event.flow_id).spec.direction)
            renewed = cp.manager.renegotiate_flow(event.flow_id, now_s)
            cp.gs_setups[event.flow_id] = renewed
            record.update(
                outcome="renegotiated" if renewed.accepted else "evicted",
                attempts=attempts, decided_at_s=now_s,
                measured_loss=measured)
            if not renewed.accepted:
                record["reason"] = renewed.reason
            return
        attempts += 1
        if attempts > event.max_retries:
            record.update(outcome="not-flagged", attempts=attempts,
                          decided_at_s=now_s)
            return
        yield env.timeout(_to_us(event.backoff_s))
