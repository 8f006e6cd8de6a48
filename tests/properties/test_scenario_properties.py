"""Property tests of the declarative scenario layer.

* ``ScenarioSpec.from_dict(spec.to_dict()) == spec`` over randomly
  generated valid specs (through an actual JSON encode/decode, so any
  type the wire format cannot carry fails here);
* the wire path and the override path decode plain values alike: a JSON
  value set at a leaf of ``to_dict()`` and read back with ``from_dict``
  gives the same spec as ``override_spec`` at that path, or both raise
  ``ValueError``; and
* ``compile()`` determinism: the same spec + seed produce byte-identical
  aggregated sweep rows no matter which execution backend ran the tasks —
  shipping the spec as a serialized ``scenario`` payload through the
  orchestrator's plain-dict task tuples.
"""

import copy
import json

from hypothesis import given, settings, strategies as st

from repro.experiments.orchestrator import SweepRunner
from repro.scenario import (
    BASELINE_POLLER_KINDS,
    BridgeSpec,
    ChannelSpec,
    EventSpec,
    FlowSpec,
    ImprovementsSpec,
    InterferenceSpec,
    PiconetSpec,
    PollerSpec,
    ScenarioSpec,
    ScoSpec,
    figure4_spec,
    override_spec,
)

small_floats = st.floats(min_value=0.001, max_value=1.0, allow_nan=False,
                         allow_infinity=False)
names = st.text(alphabet="abcdefgh-", min_size=1, max_size=8)


@st.composite
def channel_specs(draw):
    model = draw(st.sampled_from(["ideal", "iid", "gilbert"]))
    scale = ()
    if model == "iid" and draw(st.booleans()):
        slaves = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4,
                               unique=True))
        scale = tuple((slave, draw(st.floats(0.0, 4.0))) for slave in slaves)
    return ChannelSpec(
        model=model,
        ber=draw(st.floats(0.0, 1e-2)),
        p_bg=draw(st.floats(0.001, 1.0)),
        stationary_bad=draw(st.floats(0.01, 0.99)),
        slave_ber_scale=scale,
        stream=draw(names))


@st.composite
def flow_specs(draw, flow_id, slave_count):
    traffic_class = draw(st.sampled_from(["GS", "BE"]))
    has_source = draw(st.booleans())
    interval = draw(small_floats) if has_source else None
    size = None
    if has_source:
        if draw(st.booleans()):
            low = draw(st.integers(1, 300))
            size = (low, low + draw(st.integers(0, 300)))
        else:
            size = draw(st.integers(1, 600))
    rng_stream = draw(st.one_of(st.none(), names))
    bound = None
    rate = None
    if traffic_class == "GS" and has_source and draw(st.booleans()):
        if draw(st.booleans()):
            bound = draw(small_floats)
        else:
            rate = draw(st.floats(100.0, 1e5))
    return FlowSpec(
        flow_id=flow_id,
        slave=draw(st.integers(1, slave_count)),
        direction=draw(st.sampled_from(["UL", "DL"])),
        traffic_class=traffic_class,
        interval_s=interval,
        size=size,
        allowed_types=draw(st.one_of(
            st.none(), st.just(("DH1",)), st.just(("DM1", "DM3")))),
        rng_stream=rng_stream,
        stagger=draw(st.booleans()) if has_source and rng_stream else False,
        delay_bound=bound,
        rate=rate)


@st.composite
def piconet_specs(draw, name=None):
    slave_count = draw(st.integers(1, 7))
    flow_count = draw(st.integers(0, 5))
    flows = tuple(draw(flow_specs(flow_id, slave_count))
                  for flow_id in range(1, flow_count + 1))
    sco_links = []
    used_slaves = set()
    for flow in flows:
        if (flow.traffic_class == "GS" and not flow.gs_managed
                and flow.slave not in used_slaves and draw(st.booleans())):
            used_slaves.add(flow.slave)
            sco_links.append(ScoSpec(
                slave=flow.slave,
                packet_type=draw(st.sampled_from(["HV1", "HV2", "HV3"])),
                ul_flow_id=flow.flow_id if flow.direction == "UL" else None,
                dl_flow_id=flow.flow_id if flow.direction == "DL" else None))
    kind = draw(st.sampled_from(
        ("round_robin", "none") + BASELINE_POLLER_KINDS))
    only = None
    if kind == "round_robin" and draw(st.booleans()):
        only = tuple(draw(st.lists(st.integers(1, 7), max_size=3,
                                   unique=True)))
    return PiconetSpec(
        name=name if name is not None else draw(names),
        slaves=tuple(f"s{i}" for i in range(slave_count)),
        flows=flows,
        sco_links=tuple(sco_links),
        allowed_types=draw(st.sampled_from(
            [("DH1", "DH3"), ("DH1",), ("DM1", "DM3")])),
        adaptive_segmentation=draw(st.booleans()),
        align_even_slots=draw(st.booleans()),
        channel=draw(channel_specs()),
        poller=PollerSpec(kind=kind, only_slaves=only),
        improvements=ImprovementsSpec(
            *(draw(st.booleans()) for _ in range(5))),
        rng_namespace=draw(st.one_of(st.none(), names)))


@st.composite
def scenario_specs(draw):
    shape = draw(st.sampled_from(["single", "interfered", "bridged"]))
    if shape == "interfered":
        victim = draw(piconet_specs())
        return ScenarioSpec(
            piconets=(victim,),
            interference=InterferenceSpec(
                victim=victim.name,
                interferer_duties=tuple(draw(st.lists(
                    st.floats(0.0, 1.0), max_size=4))),
                ber_per_collision=draw(st.one_of(
                    st.none(), st.floats(0.01, 0.5)))))
    if shape == "bridged":
        first = draw(piconet_specs(name="alpha"))
        second = draw(piconet_specs(name="beta"))
        return ScenarioSpec(
            piconets=(first, second),
            bridges=(BridgeSpec(
                piconet_a="alpha", slave_a=draw(
                    st.integers(1, len(first.slaves))),
                piconet_b="beta", slave_b=draw(
                    st.integers(1, len(second.slaves))),
                share_a=draw(st.floats(0.2, 0.8)),
                period_slots=draw(st.integers(24, 200)),
                switch_slots=draw(st.integers(0, 4)),
                negotiated=draw(st.booleans())),))
    return ScenarioSpec(piconets=(draw(piconet_specs()),))


@given(scenario_specs())
@settings(max_examples=60, deadline=None)
def test_spec_round_trips_through_json(spec):
    wire = json.dumps(spec.to_dict(), sort_keys=True)
    assert ScenarioSpec.from_dict(json.loads(wire)) == spec
    # serialization is deterministic: same spec -> same wire bytes
    assert json.dumps(spec.to_dict(), sort_keys=True) == wire


def leaf_paths(data, prefix=()):
    """Every path to a scalar (or an empty list) inside plain ``data``."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list) and data:
        items = enumerate(data)
    else:
        return [prefix]
    return [path for key, value in items
            for path in leaf_paths(value, prefix + (str(key),))]


#: plain JSON values of every shape a leaf may hold, valid or not
json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 300),
    st.floats(-1.0, 400.0, allow_nan=False),
    st.sampled_from([0.5, 1.0, 96.0, 200.5]),
    st.sampled_from(["", "iid", "DH1", "UL", "GS", "round_robin", "S1"]),
    st.lists(st.integers(0, 8), max_size=3),
    st.lists(st.sampled_from(["DH1", "DM3"]), max_size=2))


def _at(data, path):
    for key in path:
        data = data[int(key) if isinstance(data, list) else key]
    return data


def _set_at(data, path, value):
    parent, last = _at(data, path[:-1]), path[-1]
    parent[int(last) if isinstance(parent, list) else last] = value


def _neighbours(value):
    """The leaf's own value and its other-typed spellings (1 <-> 1.0)."""
    if isinstance(value, bool):
        return [value, not value, int(value)]
    if isinstance(value, int):
        return [value, float(value), value + 1]
    if isinstance(value, float):
        return [value, int(value), value * 2]
    return [value]


def _outcome(build):
    try:
        spec = build()
    except ValueError:
        return None
    return spec, json.dumps(spec.to_dict(), sort_keys=True)


@given(scenario_specs(), st.data())
@settings(max_examples=150, deadline=None)
def test_wire_path_matches_override_path(spec, data):
    plain = spec.to_dict()
    path = data.draw(st.sampled_from(leaf_paths(plain)))
    value = data.draw(st.one_of(
        st.sampled_from(_neighbours(_at(plain, path))), json_values))
    wire = copy.deepcopy(plain)
    _set_at(wire, path, value)
    by_wire = _outcome(
        lambda: ScenarioSpec.from_dict(json.loads(json.dumps(wire))))
    by_override = _outcome(lambda: override_spec(spec, ".".join(path), value))
    assert by_wire == by_override


@st.composite
def timeline_events(draw):
    """Valid events against the figure-4 victim piconet of
    :func:`churn_recovery_spec` (GS flows 1-4 on slaves 1-3, BE slaves
    4-7, a 4-interferer field)."""
    kind = draw(st.sampled_from(
        ["park-cycle", "interferer", "flow-renegotiate", "flow-remove"]))
    at_s = draw(small_floats)
    if kind == "park-cycle":
        slave = draw(st.integers(4, 7))  # BE slaves: no GS bookkeeping ties
        return [EventSpec(at_s=at_s, kind="park", slave=slave),
                EventSpec(at_s=at_s + draw(small_floats), kind="unpark",
                          slave=slave)]
    if kind == "interferer":
        return [EventSpec(
            at_s=at_s,
            kind=draw(st.sampled_from(["interferer-on", "interferer-off"])),
            interferer=draw(st.integers(1, 4)))]
    if kind == "flow-remove":
        return [EventSpec(at_s=at_s, kind="flow-remove",
                          flow_id=draw(st.integers(5, 12)))]
    return [EventSpec(
        at_s=at_s, kind="flow-renegotiate",
        flow_id=draw(st.integers(1, 4)),
        max_retries=draw(st.integers(0, 5)),
        backoff_s=draw(small_floats),
        min_observations=draw(st.integers(1, 50)),
        tolerance=draw(st.floats(0.0, 0.5)))]


@st.composite
def timeline_scenario_specs(draw):
    from dataclasses import replace

    from repro.scenario import TimelineSpec, churn_recovery_spec

    events = [event
              for group in draw(st.lists(timeline_events(), max_size=5))
              for event in group]
    removed = set()
    deduped = []
    for event in sorted(events, key=lambda event: event.at_s):
        # a flow id can only be removed once, and parking the same slave
        # twice needs an interleaved unpark the flat sort cannot promise —
        # keep one park/unpark cycle per slave
        if event.kind == "flow-remove":
            if event.flow_id in removed:
                continue
            removed.add(event.flow_id)
        deduped.append(event)
    seen_slaves = set()
    kept = []
    for event in deduped:
        if event.kind in ("park", "unpark"):
            if event.kind == "park" and event.slave in seen_slaves:
                continue
            if event.kind == "park":
                seen_slaves.add(event.slave)
            elif event.slave not in seen_slaves:
                continue
        kept.append(event)
    return replace(churn_recovery_spec(),
                   timeline=TimelineSpec(events=tuple(kept)))


@given(timeline_scenario_specs())
@settings(max_examples=40, deadline=None)
def test_timeline_spec_round_trips_through_json(spec):
    wire = json.dumps(spec.to_dict(), sort_keys=True)
    assert ScenarioSpec.from_dict(json.loads(wire)) == spec
    assert json.dumps(spec.to_dict(), sort_keys=True) == wire


def test_compile_rows_byte_identical_across_backends_via_payload():
    """Same serialized spec + seed => byte-identical aggregated rows on the
    serial and batch backends (the payload travels as a plain
    dict inside each task tuple)."""
    spec = figure4_spec(delay_requirement=0.04,
                        channel=ChannelSpec(model="iid", ber=3e-4))
    overrides = {
        "scenario": spec.to_dict(),
        "delay_requirement": [0.04],
        "duration_seconds": 0.6,
    }
    results = {
        name: SweepRunner(max_workers=2, backend=name).run(
            "figure5", overrides=overrides, master_seed=13)
        for name in ("serial", "batch")}
    serial = results["serial"]
    assert serial.rows
    assert serial.rows[0]["mean"]["admitted"] is True
    assert serial.to_json() == results["batch"].to_json()


def test_timeline_rows_byte_identical_across_backends():
    """A park/unpark timeline ships inside the scenario payload and fires
    identically on every backend (worker processes re-install it from the
    serialized spec)."""
    from dataclasses import replace

    from repro.scenario import TimelineSpec

    spec = replace(
        figure4_spec(delay_requirement=0.04),
        timeline=TimelineSpec(events=(
            EventSpec(at_s=0.2, kind="park", slave=1),
            EventSpec(at_s=0.4, kind="unpark", slave=1))))
    overrides = {
        "scenario": spec.to_dict(),
        "delay_requirement": [0.04],
        "duration_seconds": 0.6,
    }
    results = {
        name: SweepRunner(max_workers=2, backend=name).run(
            "figure5", overrides=overrides, master_seed=7)
        for name in ("serial", "batch")}
    serial = results["serial"]
    assert serial.rows
    assert serial.to_json() == results["batch"].to_json()
