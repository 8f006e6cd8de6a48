"""Validation and serialization of the declarative spec layer."""

import copy
import functools
import json

import pytest

from repro.experiments.golden import GOLDEN_OVERRIDES
from repro.experiments.registry import iter_experiments

from repro.scenario import (
    BridgeSpec,
    ChannelSpec,
    FlowSpec,
    ImprovementsSpec,
    InterferenceSpec,
    PiconetSpec,
    PollerSpec,
    ScenarioSpec,
    ScoSpec,
    bridge_split_spec,
    figure4_spec,
    interfered_be_spec,
    multi_sco_spec,
    resolve_point_spec,
)


def voice_flow(**overrides):
    base = dict(flow_id=1, slave=1, direction="UL", traffic_class="GS",
                interval_s=0.020, size=(144, 176))
    base.update(overrides)
    return FlowSpec(**base)


def golden_point_factories():
    """One spec factory per golden point of every spec-backed experiment."""
    return [
        pytest.param(functools.partial(resolve_point_spec, point,
                                       experiment.scenario),
                     id=f"{experiment.name}-{index}")
        for experiment in iter_experiments()
        if experiment.scenario is not None
        for index, point in enumerate(experiment.points(
            GOLDEN_OVERRIDES.get(experiment.name)))]


# ----------------------------------------------------------- construction

@pytest.mark.parametrize("factory", [
    lambda: figure4_spec(delay_requirement=0.04),
    lambda: figure4_spec(delay_requirement=None, gs_rate=9000.0),
    lambda: multi_sco_spec(),
    lambda: interfered_be_spec((1.0, 0.5), base_bit_error_rate=1e-4),
    lambda: bridge_split_spec(0.5, negotiated=True),
    *golden_point_factories(),
])
def test_factories_produce_json_round_trippable_specs(factory):
    spec = factory()
    as_json = json.dumps(spec.to_dict())
    assert ScenarioSpec.from_dict(json.loads(as_json)) == spec


def test_figure4_spec_matches_paper_layout():
    spec = figure4_spec(delay_requirement=0.04)
    piconet = spec.piconets[0]
    assert len(piconet.slaves) == 7
    assert [f.flow_id for f in piconet.flows] == list(range(1, 13))
    gs = [f for f in piconet.flows if f.gs_managed]
    assert [f.flow_id for f in gs] == [1, 2, 3, 4]
    assert all(f.delay_bound == 0.04 for f in gs)
    assert {f.direction for f in gs} == {"UL", "DL"}
    be = [f for f in piconet.flows if f.traffic_class == "BE"]
    assert len(be) == 8 and all(f.size == 176 for f in be)


def test_figure4_spec_zero_be_load_registers_sourceless_flows():
    spec = figure4_spec(delay_requirement=0.04, be_load_scale=0.0)
    be = [f for f in spec.piconets[0].flows if f.traffic_class == "BE"]
    assert be and all(f.interval_s is None and f.size is None for f in be)


@pytest.mark.parametrize("kwargs,message", [
    (dict(delay_requirement=None), "exactly one of"),
    (dict(delay_requirement=0.04, gs_rate=9000.0), "exactly one of"),
    (dict(delay_requirement=0.04, be_load_scale=-1), "cannot be negative"),
    (dict(delay_requirement=0.04, be_slaves=(4, 4)), "must not repeat"),
    (dict(delay_requirement=0.04, sco_slaves=(3,)), "must not carry"),
    (dict(delay_requirement=0.04, be_slaves=(9,)), "lie in 1..7"),
    (dict(delay_requirement=0.04, be_directions=()), "non-empty subset"),
])
def test_figure4_spec_rejects_bad_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        figure4_spec(**kwargs)


@pytest.mark.parametrize("mutation,message", [
    (dict(direction="sideways"), "direction"),
    (dict(traffic_class="XX"), "traffic_class"),
    (dict(slave=0), "slave AM address"),
    (dict(interval_s=-1.0), "interval_s must be positive"),
    (dict(size=0), "size"),
    (dict(size=(10, 5)), "min <= max"),
    (dict(interval_s=None), "size without interval_s"),
    (dict(delay_bound=0.03, rate=9000.0), "at most one"),
    (dict(delay_bound=-0.1), "delay_bound must be positive"),
    (dict(traffic_class="BE", delay_bound=0.03), "only GS flows"),
    (dict(stagger=True), "rng_stream"),
    (dict(allowed_types=()), "allowed_types may not be empty"),
])
def test_flow_spec_rejects_invalid_fields(mutation, message):
    with pytest.raises(ValueError, match=message):
        voice_flow(**mutation)


def test_flow_spec_size_bounds_and_gs_managed():
    ranged = voice_flow()
    assert ranged.size_bounds == (144, 176)
    assert not ranged.gs_managed
    fixed = voice_flow(size=150, delay_bound=0.025)
    assert fixed.size_bounds == (150, 150)
    assert fixed.gs_managed


@pytest.mark.parametrize("mutation,message", [
    (dict(slaves=()), "1..7 slaves"),
    (dict(name=""), "non-empty name"),
    (dict(allowed_types=()), "allowed_types may not be empty"),
    (dict(flows=(voice_flow(), voice_flow())), "unique"),
    (dict(flows=(voice_flow(slave=5),), slaves=("a", "b")),
     "addresses slave 5"),
    (dict(sco_links=(ScoSpec(slave=6),), slaves=("a",)),
     "SCO link addresses slave 6"),
    (dict(sco_links=(ScoSpec(slave=1, ul_flow_id=9),)), "unknown flow id 9"),
    (dict(flows=(voice_flow(slave=2),),
          sco_links=(ScoSpec(slave=1, ul_flow_id=1),), slaves=("a", "b")),
     "lives on slave 2"),
    (dict(sco_links=(ScoSpec(slave=1), ScoSpec(slave=1))),
     "at most one SCO link per slave"),
])
def test_piconet_spec_rejects_invalid_fields(mutation, message):
    base = dict(slaves=("voice",), flows=(voice_flow(),))
    base.update(mutation)
    with pytest.raises(ValueError, match=message):
        PiconetSpec(**base)


@pytest.mark.parametrize("mutation,message", [
    (dict(model="warp"), "unknown channel model"),
    (dict(ber=1.5), "within \\[0, 1\\]"),
    (dict(p_bg=0.0), "p_bg"),
    (dict(stationary_bad=1.0), "stationary_bad"),
    (dict(model="gilbert", slave_ber_scale=((1, 2.0),)),
     "only applies to the iid model"),
    (dict(model="iid", slave_ber_scale=((9, 1.0),)), "lie in 1..7"),
    (dict(model="iid", slave_ber_scale=((1, 1.0), (1, 2.0))),
     "must not repeat"),
    (dict(model="iid", slave_ber_scale=((1, -1.0),)), "negative"),
    (dict(stream=""), "substream"),
])
def test_channel_spec_rejects_invalid_fields(mutation, message):
    base = dict(model="iid", ber=1e-4)
    base.update(mutation)
    with pytest.raises(ValueError, match=message):
        ChannelSpec(**base)


@pytest.mark.parametrize("mutation,message", [
    (dict(kind="quantum"), "unknown poller kind"),
    (dict(only_slaves=(1,)), "only meaningful for the round_robin"),
    (dict(kind="round_robin", only_slaves=(0,)), "AM addresses in 1..7"),
])
def test_poller_spec_rejects_invalid_fields(mutation, message):
    with pytest.raises(ValueError, match=message):
        PollerSpec(**mutation)


def test_improvements_spec_rejects_non_bool():
    with pytest.raises(ValueError, match="must be a bool"):
        ImprovementsSpec(variable_interval=1)


@pytest.mark.parametrize("mutation,message", [
    (dict(interferer_duties=(1.5,)), "within \\[0, 1\\]"),
    (dict(ber_per_collision=0.0), "ber_per_collision"),
    (dict(victim=""), "victim"),
])
def test_interference_spec_rejects_invalid_fields(mutation, message):
    with pytest.raises(ValueError, match=message):
        InterferenceSpec(**mutation)


def test_bridge_spec_delegates_schedule_validation():
    with pytest.raises(ValueError, match="share_a must be within"):
        BridgeSpec(share_a=1.5)
    with pytest.raises(ValueError, match="two distinct piconets"):
        BridgeSpec(piconet_a="A", piconet_b="A")
    with pytest.raises(ValueError, match="period_slots"):
        BridgeSpec(period_slots=1)


def test_scenario_spec_cross_validation():
    piconet = PiconetSpec(name="A")
    with pytest.raises(ValueError, match="at least one piconet"):
        ScenarioSpec(piconets=())
    with pytest.raises(ValueError, match="unique"):
        ScenarioSpec(piconets=(piconet, PiconetSpec(name="A")))
    with pytest.raises(ValueError, match="unknown piconet 'B'"):
        ScenarioSpec(piconets=(piconet,),
                     bridges=(BridgeSpec(piconet_a="A", piconet_b="B"),))
    with pytest.raises(ValueError, match="single-piconet"):
        ScenarioSpec(piconets=(piconet, PiconetSpec(name="B")),
                     interference=InterferenceSpec())
    with pytest.raises(ValueError, match="has 1 slave"):
        ScenarioSpec(
            piconets=(piconet, PiconetSpec(name="B", slaves=("only",))),
            bridges=(BridgeSpec(piconet_a="A", piconet_b="B", slave_b=3),))


def test_interference_victim_must_name_the_piconet():
    with pytest.raises(ValueError, match="must name the scenario's piconet"):
        ScenarioSpec(piconets=(PiconetSpec(name="piconet"),),
                     interference=InterferenceSpec(victim="other"))
    spec = interfered_be_spec((1.0,))
    assert spec.interference.victim == spec.piconets[0].name == "victim"


def test_scenario_spec_piconet_lookup():
    spec = bridge_split_spec(0.5)
    assert spec.piconet("A").name == "A"
    with pytest.raises(KeyError, match="unknown piconet"):
        spec.piconet("C")


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown ChannelSpec field"):
        ChannelSpec.from_dict({"model": "iid", "bogus": 1})
    with pytest.raises(ValueError, match="unknown ScenarioSpec field"):
        ScenarioSpec.from_dict({"piconets": [], "extra": True})


def _figure4_payload(mutate):
    payload = copy.deepcopy(figure4_spec(delay_requirement=0.04).to_dict())
    mutate(payload)
    return payload


def _set_flow_size(payload):
    payload["piconets"][0]["flows"][3]["size"] = [100, 200.5]


@pytest.mark.parametrize("mutate,message", [
    (_set_flow_size, "FlowSpec.size must be an integer, got 200.5"),
    (lambda p: p["piconets"][0].update(channel="iid"),
     "PiconetSpec.channel must be a ChannelSpec mapping"),
    (lambda p: p["piconets"][0].update(slaves="S1"),
     "PiconetSpec.slaves must be a list, got 'S1'"),
    (lambda p: p["piconets"][0]["channel"].update(ber=True),
     "ChannelSpec.ber must be a number"),
    (lambda p: p.update(interference="x"),
     "ScenarioSpec.interference must be an InterferenceSpec mapping"),
    (lambda p: p.update(timeline={"events": 3}),
     "TimelineSpec.events must be a list of EventSpec mappings"),
    (lambda p: p["piconets"][0]["flows"][0].pop("slave"),
     "missing FlowSpec field"),
    # the executor switch of older payloads is gone with the executor
    (lambda p: p["piconets"][0].update({"fast_path": False}),
     "^unknown PiconetSpec field\\(s\\) \\['fast_path'\\]"),
], ids=["fractional-size", "channel-string", "slaves-string", "bool-ber",
        "interference-string", "events-int", "missing-field",
        "stale-fast-path"])
def test_from_dict_rejects_misdecoded_payloads(mutate, message):
    # every wire-path mismatch fails with a one-line ValueError, the same
    # decision the --set path makes (tests/scenario/test_overrides.py)
    with pytest.raises(ValueError, match=message):
        ScenarioSpec.from_dict(_figure4_payload(mutate))


def test_from_dict_decodes_by_declared_type():
    # an integral float becomes an int, an int becomes a float
    period = BridgeSpec.from_dict({"period_slots": 96.0}).period_slots
    assert period == 96 and type(period) is int
    ber = ChannelSpec.from_dict({"ber": 0}).ber
    assert ber == 0.0 and type(ber) is float
    assert json.dumps(ChannelSpec.from_dict({"ber": 0}).to_dict()) \
        == json.dumps(ChannelSpec().to_dict())
    # construction decodes too: lists become tuples, element by element
    flow = voice_flow(size=[144.0, 176])
    assert flow.size == (144, 176) and type(flow.size[0]) is int
    assert PiconetSpec(slaves=["a", "b"]).slaves == ("a", "b")


def test_sco_flow_ids_follow_flow_order():
    spec = figure4_spec(delay_requirement=0.046, be_slaves=(4, 5, 6),
                        sco_slaves=(7,), gs_uplink_only=True,
                        be_directions=("UL",))
    piconet = spec.piconets[0]
    assert piconet.sco_flow_ids == (8,)
    assert piconet.sco_links[0].ul_flow_id == 8


# ---------------------------------------------------------- AdmissionSpec

def test_admission_spec_round_trips_and_defaults_oblivious():
    from repro.scenario import AdmissionSpec

    spec = figure4_spec()
    assert spec.piconets[0].admission == AdmissionSpec()
    assert not spec.piconets[0].admission.aware
    aware = AdmissionSpec(mode="budget-aware", loss_margin=0.05,
                          residency_margin=0.02, estimator_alpha=0.1,
                          estimator_seed_loss=0.01)
    assert aware.aware
    rebuilt = AdmissionSpec.from_dict(
        json.loads(json.dumps(aware.to_dict())))
    assert rebuilt == aware


@pytest.mark.parametrize("mutation,message", [
    (dict(mode="psychic"), "admission mode"),
    (dict(loss_margin=1.0), "loss_margin"),
    (dict(loss_margin=-0.1), "loss_margin"),
    (dict(residency_margin=1.0), "residency_margin"),
    (dict(estimator_alpha=0.0), "estimator_alpha"),
    (dict(estimator_alpha=1.5), "estimator_alpha"),
    (dict(estimator_seed_loss=1.5), "estimator_seed_loss"),
])
def test_admission_spec_rejects_invalid_fields(mutation, message):
    from repro.scenario import AdmissionSpec

    with pytest.raises(ValueError, match=message):
        AdmissionSpec(**mutation)


def test_piconet_spec_round_trips_admission():
    from repro.scenario import AdmissionSpec

    piconet = figure4_spec().piconets[0]
    import dataclasses
    aware = dataclasses.replace(
        piconet, admission=AdmissionSpec(mode="budget-aware"))
    rebuilt = PiconetSpec.from_dict(json.loads(json.dumps(aware.to_dict())))
    assert rebuilt.admission.mode == "budget-aware"
    assert rebuilt == aware
