"""Compiling specs: determinism, channels, pollers, interference and
scatternet wiring."""

from dataclasses import replace

import pytest

from repro.baseband.channel import (
    ChannelMap,
    GilbertElliottChannel,
    LossyChannel,
)
from repro.baseband.packets import BasebandPacket, get_packet_type
from repro.core.link_budget import IDEAL_LINK_BUDGET
from repro.core.pfp import PredictiveFairPoller
from repro.scenario import (
    ChannelSpec,
    FlowSpec,
    InterferenceSpec,
    PiconetSpec,
    PollerSpec,
    ScenarioSpec,
    bridge_split_spec,
    compile_channel,
    figure4_spec,
    interfered_be_spec,
    multi_sco_spec,
)
from repro.scenario.compile import slave_ber
from repro.schedulers.round_robin import PureRoundRobinPoller


def flow_fingerprint(piconet):
    """Deterministic digest of every flow's delivered traffic and errors."""
    return [(state.spec.flow_id, state.delivered_bytes,
             state.delivered_packets, state.retransmissions,
             state.delays.count,
             round(state.delays.maximum, 12) if state.delays.count else None)
            for state in piconet.flow_states()]


# ---------------------------------------------------------------- determinism

def test_compile_is_deterministic_for_same_spec_and_seed():
    spec = figure4_spec(delay_requirement=0.04,
                        channel=ChannelSpec(model="iid", ber=3e-4))
    runs = []
    for _ in range(2):
        compiled = spec.compile(11)
        compiled.run(0.8)
        runs.append(flow_fingerprint(compiled.primary.piconet))
    assert runs[0] == runs[1]


# ------------------------------------------------------------ channel compile

def _dh3():
    return BasebandPacket(get_packet_type("DH3"), payload=150)


def test_compile_channel_ideal_and_zero_ber_return_none():
    assert compile_channel(ChannelSpec(), 1) is None
    assert compile_channel(ChannelSpec(model="iid", ber=0.0), 1) is None


def test_compile_channel_models_and_per_slave_ramp():
    iid = compile_channel(ChannelSpec(model="iid", ber=1e-3), 1)
    assert isinstance(iid, ChannelMap)
    assert isinstance(iid.channel_for(1, "DL"), LossyChannel)
    gilbert = compile_channel(
        ChannelSpec(model="gilbert", ber=1e-3, p_bg=0.04,
                    stationary_bad=0.2), 1)
    link = gilbert.channel_for(1, "DL")
    assert isinstance(link, GilbertElliottChannel)
    assert link.p_gb / (link.p_gb + link.p_bg) == pytest.approx(0.2)
    assert link.ber_bad == pytest.approx(1e-3 / 0.2)
    ramp = compile_channel(
        ChannelSpec(model="iid", ber=1e-3,
                    slave_ber_scale=((1, 0.5), (2, 2.0))), 1)
    assert ramp.channel_for(1, "UL").bit_error_rate == pytest.approx(5e-4)
    assert ramp.channel_for(2, "UL").bit_error_rate == pytest.approx(2e-3)
    assert ramp.channel_for(3, "UL").bit_error_rate == pytest.approx(1e-3)


def test_slave_missing_from_the_scale_simulates_the_unscaled_ber():
    """An unlisted slave is simulated at x1.0, the BER its admission
    budget is composed from, not on an ideal radio."""
    channel = ChannelSpec(model="iid", ber=1e-4, slave_ber_scale=((1, 0.25),))
    links = figure4_spec(channel=channel).compile(1).primary.piconet.channels
    assert isinstance(links.channel_for(2, "UL"), LossyChannel)
    assert links.channel_for(2, "UL").bit_error_rate == slave_ber(channel, 2)
    assert slave_ber(channel, 2) == 1e-4
    assert links.channel_for(1, "UL").bit_error_rate == \
        pytest.approx(2.5e-5)


def test_interference_base_channels_keep_the_per_slave_scale():
    channel = ChannelSpec(model="iid", ber=1e-4,
                          slave_ber_scale=((1, 0.25), (7, 1.75)))
    plain = figure4_spec(channel=channel)
    interfered = replace(plain, interference=InterferenceSpec(
        victim=plain.piconets[0].name, interferer_duties=(0.5,)))
    links = interfered.compile(1).primary.piconet.channels
    assert links.channel_for(1, "UL").base.bit_error_rate == \
        pytest.approx(2.5e-5)
    assert links.channel_for(7, "UL").base.bit_error_rate == \
        pytest.approx(1.75e-4)


def test_compile_channel_is_reproducible_per_link():
    spec = ChannelSpec(model="gilbert", ber=1e-3)

    def sequence():
        cmap = compile_channel(spec, 9)
        return tuple(cmap.transmit(1, "DL", _dh3(), now_us=n * 1250).ok
                     for n in range(300))

    assert sequence() == sequence()


def test_interference_composes_gilbert_base_channel():
    spec = interfered_be_spec((1.0,))
    piconet = spec.piconets[0]
    bursty = ScenarioSpec(
        piconets=(replace(piconet, channel=ChannelSpec(
            model="gilbert", ber=3e-4)),),
        interference=spec.interference)
    compiled = bursty.compile(4)
    compiled.run(0.5)
    channels = compiled.primary.piconet.channels
    bases = [channels.channel_for(flow.slave, flow.direction).base
             for flow in piconet.flows]
    assert bases and all(isinstance(b, GilbertElliottChannel) for b in bases)


# ------------------------------------------------------------------- pollers

def test_pfp_kind_requires_managed_flows():
    spec = ScenarioSpec(piconets=(PiconetSpec(
        slaves=("s",),
        flows=(FlowSpec(1, slave=1, direction="UL", traffic_class="BE"),),
        poller=PollerSpec(kind="pfp")),))
    with pytest.raises(ValueError, match="needs Guaranteed Service flows"):
        spec.compile(1)


def test_none_kind_rejects_admission_controlled_flows():
    spec = ScenarioSpec(piconets=(PiconetSpec(
        slaves=("s",),
        flows=(FlowSpec(1, slave=1, direction="UL", traffic_class="GS",
                        interval_s=0.02, size=150, delay_bound=0.03),),
        poller=PollerSpec(kind="none")),))
    with pytest.raises(ValueError, match="poller kind 'none'"):
        spec.compile(1)


def test_none_kind_attaches_no_poller():
    spec = ScenarioSpec(piconets=(PiconetSpec(
        slaves=("s",),
        flows=(FlowSpec(1, slave=1, direction="UL", traffic_class="BE"),),
        poller=PollerSpec(kind="none")),))
    compiled = spec.compile(1)
    assert compiled.primary.piconet.poller is None


def test_baseline_kind_keeps_admission_but_replaces_poller():
    spec = figure4_spec(delay_requirement=0.04)
    from dataclasses import replace
    baseline = ScenarioSpec(piconets=(replace(
        spec.piconets[0], poller=PollerSpec(kind="pure-round-robin")),))
    compiled = baseline.compile(1)
    built = compiled.primary
    assert built.manager is not None
    assert built.all_gs_admitted
    assert isinstance(built.piconet.poller, PureRoundRobinPoller)
    assert isinstance(built.poller, PureRoundRobinPoller)


def test_pfp_poller_is_attached_for_managed_flows():
    compiled = figure4_spec(delay_requirement=0.04).compile(1)
    assert isinstance(compiled.primary.piconet.poller, PredictiveFairPoller)


# ------------------------------------------------------------------ plumbing

def test_compiled_scenario_piconet_lookup():
    compiled = bridge_split_spec(0.5).compile(1)
    assert compiled.piconet("A") is compiled.piconets["A"]
    with pytest.raises(KeyError, match="unknown piconet"):
        compiled.piconet("C")


def test_compiled_piconet_voice_stats_and_delay_requirement():
    compiled = multi_sco_spec().compile(2)
    built = compiled.primary
    assert built.gs_delay_summary() == {}
    compiled.run(0.5)
    stats = built.voice_stats()
    assert sorted(stats) == built.sco_flow_ids
    assert all(s["throughput_kbps"] > 0 for s in stats.values())


# ----------------------------------------------------------- negotiated hold

def test_negotiated_bridge_skips_polls_instead_of_burning_slots():
    blind = bridge_split_spec(0.5).compile(3)
    blind.run(1.0)
    negotiated = bridge_split_spec(0.5, negotiated=True).compile(3)
    negotiated.run(1.0)

    blind_a = blind.piconets["A"].piconet
    nego_a = negotiated.piconets["A"].piconet
    assert blind_a.bridge_absent_polls > 0
    assert blind_a.bridge_skipped_polls == 0
    # the negotiated master never wastes a transaction on the absent bridge
    assert nego_a.bridge_absent_polls == 0
    assert nego_a.bridge_skipped_polls > 0
    assert negotiated.piconets["B"].piconet.bridge_skipped_polls > 0

    accounting = nego_a.slot_accounting()
    assert accounting["bridge_skipped_polls"] == nego_a.bridge_skipped_polls
    assert "bridge_skipped_polls" not in blind_a.slot_accounting()
    assert blind_a.slot_accounting()["bridge_absent_polls"] > 0

    # skipping must not head-of-line-block the piconet: the other slaves'
    # traffic flows at least as well as under the blind schedule (where
    # failed bridge polls burn 2..6 slots each)
    blind_be = sum(blind.piconets["A"].piconet.flow_state(fid).delivered_bytes
                   for fid in blind.piconets["A"].be_flow_ids)
    nego_be = sum(nego_a.flow_state(fid).delivered_bytes
                  for fid in negotiated.piconets["A"].be_flow_ids)
    assert nego_be >= blind_be


# ---------------------------------------------------- budget-aware wiring

def aware_figure4_spec(ber=1e-3):
    import dataclasses

    from repro.scenario import AdmissionSpec

    spec = figure4_spec(channel=ChannelSpec(model="iid", ber=ber))
    piconet = dataclasses.replace(
        spec.piconets[0], admission=AdmissionSpec(mode="budget-aware"))
    return dataclasses.replace(spec, piconets=(piconet,))


def test_oblivious_default_compiles_without_budgets():
    compiled = figure4_spec().compile(0).primary
    assert not compiled.manager.budget_aware
    assert compiled.manager.budget_for(1, "UL") is None


def test_budget_aware_compile_threads_budgets_and_feedback():
    from repro.scenario import link_budgets_for

    spec = aware_figure4_spec()
    compiled = spec.compile(0).primary
    manager = compiled.manager
    assert manager.budget_aware
    expected = link_budgets_for(spec, spec.piconets[0])
    assert manager.budget_for(1, "UL") == expected[(1, "UL")]
    assert manager.budget_for(1, "UL").loss_probability > 0.5
    # the piconet feeds observed outcomes back into the manager
    compiled.run(0.2)
    assert manager.measured_loss(1, "UL") is not None


def test_admission_mode_dotted_override_flows_to_compile():
    from repro.scenario import apply_overrides

    spec = apply_overrides(figure4_spec(),
                           {"admission.mode": "budget-aware"})
    assert spec.piconets[0].admission.aware
    compiled = spec.compile(0).primary
    # ideal channel, full residency: budgets exist but are all ideal
    assert compiled.manager.budget_aware
    assert compiled.manager.budget_for(1, "UL") == IDEAL_LINK_BUDGET


def test_describe_link_budgets_covers_oblivious_piconets_too():
    from repro.scenario import describe_link_budgets

    rows = describe_link_budgets(bridge_split_spec(bridge_share=0.3))
    by_link = {(row["piconet"], row["slave"], row["direction"]): row
               for row in rows}
    assert all(row["mode"] == "oblivious" for row in rows)
    bridge_row = by_link[("A", 3, "UL")]
    assert bridge_row["residency"] == pytest.approx(0.28125)
    assert bridge_row["absence_ms"] == pytest.approx(43.125)
    assert by_link[("A", 1, "UL")]["residency"] == 1.0


def test_link_budgets_scale_gilbert_and_interference_inputs():
    import dataclasses

    from repro.baseband.interference import DEFAULT_COLLISION_BER
    from repro.scenario import InterferenceSpec, link_budgets_for
    from repro.scenario.compile import _interference_ber

    spec = figure4_spec(
        channel=ChannelSpec(model="iid", ber=1e-5,
                            slave_ber_scale=((2, 2.0),)),
        adaptive_segmentation=True)
    piconet = spec.piconets[0]
    spec = dataclasses.replace(spec, interference=InterferenceSpec(
        victim=piconet.name, interferer_duties=(0.2, 0.2),
        ber_per_collision=0.01))
    budgets = link_budgets_for(spec, spec.piconets[0])
    # per-slave multipliers make S2's links lossier than S1's
    assert budgets[(2, "UL")].loss_probability \
        > budgets[(1, "UL")].loss_probability
    # the analytic collision BER honours the configured ber_per_collision
    expected = (1.0 - (1.0 - 0.2 / 79) ** 2) * 0.01
    assert _interference_ber(spec, spec.piconets[0]) \
        == pytest.approx(expected)
    assert DEFAULT_COLLISION_BER != 0.01  # the override actually differs
    # a different piconet name sees no interference
    other = dataclasses.replace(spec.piconets[0], name="other")
    assert _interference_ber(spec, other) == 0.0
