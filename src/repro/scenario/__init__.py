"""Declarative scenario layer: typed, serializable simulation descriptions.

``ScenarioSpec`` (with its nested ``PiconetSpec`` / ``FlowSpec`` /
``ScoSpec`` / ``ChannelSpec`` / ``InterferenceSpec`` / ``BridgeSpec`` /
``PollerSpec`` / ``ImprovementsSpec``) describes a complete simulation
run as validated, frozen *data* that round-trips through plain dicts
(``to_dict`` / ``from_dict``) and compiles into the existing runtime
objects (``spec.compile(seed)`` -> ``CompiledScenario``).

Sweep points and the CLI mutate specs declaratively via dotted paths
(:func:`apply_overrides`, e.g. ``channel.ber=1e-4``); the spec factories
(:func:`figure4_spec`, :func:`multi_sco_spec`, :func:`interfered_be_spec`,
:func:`coupled_room_spec`, :func:`bridge_split_spec`,
:func:`churn_recovery_spec`) map the historical workload builders' keyword
surfaces onto specs.

Dynamic topologies: a spec may carry a ``TimelineSpec`` — ordered
``EventSpec`` events (park/unpark, bridge-roam, flow add/remove/
renegotiate, interferer on/off) that :func:`compile_scenario`
materialises as processes on the shared clock
(:mod:`repro.scenario.timeline`).
"""

from repro.scenario.compile import (
    CompiledPiconet,
    CompiledScenario,
    baseline_poller_factories,
    compile_channel,
    compile_scenario,
    describe_link_budgets,
    gs_bound_met,
    link_budgets_for,
)
from repro.scenario.factories import (
    bridge_split_spec,
    churn_recovery_spec,
    coupled_room_spec,
    figure4_piconet_spec,
    figure4_spec,
    interfered_be_spec,
    multi_sco_piconet_spec,
    multi_sco_spec,
)
from repro.scenario.timeline import install_timeline
from repro.scenario.overrides import (
    SCENARIO_PARAM,
    apply_overrides,
    forbid_overrides,
    override_spec,
    resolve_point_spec,
    split_spec_overrides,
)
from repro.scenario.specs import (
    ADMISSION_MODES,
    BASELINE_POLLER_KINDS,
    CHANNEL_MODELS,
    EVENT_KINDS,
    POLLER_KINDS,
    AdmissionSpec,
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
    TimelineSpec,
)

__all__ = [
    "ADMISSION_MODES",
    "BASELINE_POLLER_KINDS",
    "CHANNEL_MODELS",
    "POLLER_KINDS",
    "SCENARIO_PARAM",
    "AdmissionSpec",
    "BridgeSpec",
    "ChannelSpec",
    "CompiledPiconet",
    "CompiledScenario",
    "EVENT_KINDS",
    "EventSpec",
    "FlowSpec",
    "ImprovementsSpec",
    "InterferenceSpec",
    "PiconetSpec",
    "PollerSpec",
    "ScenarioSpec",
    "ScoSpec",
    "TimelineSpec",
    "apply_overrides",
    "baseline_poller_factories",
    "bridge_split_spec",
    "churn_recovery_spec",
    "compile_channel",
    "compile_scenario",
    "coupled_room_spec",
    "install_timeline",
    "describe_link_budgets",
    "figure4_piconet_spec",
    "forbid_overrides",
    "figure4_spec",
    "gs_bound_met",
    "interfered_be_spec",
    "link_budgets_for",
    "multi_sco_piconet_spec",
    "multi_sco_spec",
    "override_spec",
    "resolve_point_spec",
    "split_spec_overrides",
]
