"""Dotted-path spec overrides: anchoring, coercion, error paths."""

import pytest

from repro.scenario import (
    ScenarioSpec,
    apply_overrides,
    bridge_split_spec,
    figure4_spec,
    interfered_be_spec,
    override_spec,
    resolve_point_spec,
    split_spec_overrides,
)


@pytest.fixture
def spec():
    return figure4_spec(delay_requirement=0.04)


def test_single_piconet_fields_anchor_without_prefix(spec):
    mutated = apply_overrides(spec, {"channel.model": "iid",
                                     "channel.ber": 3e-4})
    assert mutated.piconets[0].channel.ber == 3e-4
    # the original spec is untouched (frozen dataclasses)
    assert spec.piconets[0].channel.ber == 0.0


def test_explicit_piconets_index_path(spec):
    mutated = override_spec(spec, "piconets.0.adaptive_segmentation", True)
    assert mutated.piconets[0].adaptive_segmentation is True


def test_piconet_name_anchors_into_multi_piconet_spec():
    spec = bridge_split_spec(0.5)
    mutated = apply_overrides(spec, {
        "A.improvements.variable_interval": False,
        "B.allowed_types": ["DH1"],
        "bridges.0.negotiated": True,
    })
    assert mutated.piconet("A").improvements.variable_interval is False
    assert mutated.piconet("B").allowed_types == ("DH1",)
    assert mutated.bridges[0].negotiated is True


def test_tuple_element_paths_reach_flows(spec):
    mutated = override_spec(spec, "flows.0.delay_bound", 0.03)
    assert mutated.piconets[0].flows[0].delay_bound == 0.03
    assert mutated.piconets[0].flows[1].delay_bound == 0.04


def test_numeric_coercions(spec):
    assert override_spec(spec, "channel.ber", 0) \
        .piconets[0].channel.ber == 0.0
    bridge = bridge_split_spec(0.5)
    assert override_spec(bridge, "bridges.0.period_slots", 120.0) \
        .bridges[0].period_slots == 120


def test_values_decode_by_declared_type_not_current_value():
    # the field's current value is None; its declared type is a float
    spec = interfered_be_spec((1.0,))
    mutated = override_spec(spec, "interference.ber_per_collision", 1)
    assert type(mutated.interference.ber_per_collision) is float
    sized = override_spec(figure4_spec(delay_requirement=0.04),
                          "flows.3.size", [100.0, 200])
    assert sized.piconets[0].flows[3].size == (100, 200)
    assert type(sized.piconets[0].flows[3].size[0]) is int


def test_list_values_coerce_to_tuples(spec):
    mutated = override_spec(spec, "allowed_types", ["DM1", "DM3"])
    assert mutated.piconets[0].allowed_types == ("DM1", "DM3")
    lossy = apply_overrides(spec, {"channel.model": "iid",
                                   "channel.ber": 1e-4,
                                   "channel.slave_ber_scale": [[1, 2.0]]})
    assert lossy.piconets[0].channel.slave_ber_scale == ((1, 2.0),)


@pytest.mark.parametrize("path,value,message", [
    ("nope.field", 1, "unknown scenario field 'nope'"),
    ("channel.nope", 1, "has no field 'nope'"),
    ("flows.99.delay_bound", 0.03, "out of range"),
    ("flows.x.delay_bound", 0.03, "not an index"),
    ("channel.ber", "fast", "expected a number"),
    ("channel.model", 3, "expected a string"),
    ("adaptive_segmentation", 1, "expected a bool"),
    ("bridges.0.period_slots", 96.5, "expected an integer"),
    ("allowed_types", "DH1", "expected a list"),
    ("name.sub", 1, "cannot descend into"),
    ("channel.ber", 7.0, "within \\[0, 1\\]"),
    ("piconet", 1, "needs a field after it"),
    # a size bound is decoded by its declared type (int), not truncated or
    # passed on as a float the compile step cannot multiply with
    ("flows.3.size", [100, 200.5], "expected an integer"),
    ("flows.3.size.1", 200.5, "expected an integer"),
    ("slaves", "S1", "expected a list"),
    ("channel.ber", True, "expected a number"),
    pytest.param("channel.ber", 10 ** 400, "expected a number",
                 id="channel.ber-int-beyond-float-range"),
    ("piconets.0.fast_path", False, "PiconetSpec has no field 'fast_path'"),
])
def test_override_error_paths(spec, path, value, message):
    target = bridge_split_spec(0.5) if path.startswith("bridges") else spec
    with pytest.raises(ValueError, match=message):
        override_spec(target, path, value)


def test_bare_piconet_name_requires_field():
    spec = bridge_split_spec(0.5)
    with pytest.raises(ValueError, match="needs a field after it"):
        override_spec(spec, "A", 1)


def test_split_spec_overrides():
    plain, dotted = split_spec_overrides(
        {"duration_seconds": 1.0, "channel.ber": 1e-4})
    assert plain == {"duration_seconds": 1.0}
    assert dotted == {"channel.ber": 1e-4}


def test_resolve_point_spec_prefers_serialized_payload(spec):
    params = {"scenario": spec.to_dict(), "channel.model": "iid",
              "channel.ber": 3e-4, "delay_requirement": 0.99}
    resolved = resolve_point_spec(
        params, lambda p: (_ for _ in ()).throw(AssertionError("unused")))
    assert isinstance(resolved, ScenarioSpec)
    assert resolved.piconets[0].channel.ber == 3e-4
    # the payload wins over the factory: the bogus delay_requirement param
    # never reaches spec construction
    assert resolved.piconets[0].flows[0].delay_bound == 0.04


def test_resolve_point_spec_rejects_non_dict_payload():
    with pytest.raises(ValueError, match="serialized ScenarioSpec"):
        resolve_point_spec({"scenario": "nope"}, lambda p: None)


def test_resolve_point_spec_calls_factory_without_payload(spec):
    resolved = resolve_point_spec({"delay_requirement": 0.04},
                                  lambda p: spec)
    assert resolved == spec


def test_nested_spec_objects_replace_via_serialized_mappings(spec):
    mutated = override_spec(spec, "channel",
                            {"model": "iid", "ber": 1e-4})
    assert mutated.piconets[0].channel.ber == 1e-4
    swapped = override_spec(
        spec, "flows",
        [f.to_dict() for f in spec.piconets[0].flows[:4]])
    assert len(swapped.piconets[0].flows) == 4


@pytest.mark.parametrize("path,value,message", [
    ("channel", 3, "expected a ChannelSpec mapping"),
    ("flows", [[1, 2]], "list of FlowSpec mappings"),
    ("flows", 7, "list of FlowSpec mappings"),
    ("sco_links", [{"slave": 99}], "cannot set"),
    ("channel", "iid", "expected a ChannelSpec mapping"),
    ("interference", "x", "expected an InterferenceSpec mapping"),
    ("timeline", {"events": 3}, "list of EventSpec mappings"),
    ("flows", [{"flow_id": 1}], "missing FlowSpec field"),
])
def test_structured_replacements_fail_cleanly(spec, path, value, message):
    # malformed structured values must raise ValueError (the CLI turns it
    # into a clean SystemExit), never an AttributeError traceback
    with pytest.raises(ValueError, match=message):
        override_spec(spec, path, value)


def test_forbid_overrides_wildcard_patterns():
    from repro.scenario import forbid_overrides
    forbid_overrides({"duration_seconds": 1.0, "channel.ber": 1e-4},
                     {"flows.*.delay_bound": "axis"})  # no clash passes
    with pytest.raises(ValueError, match="clashes with"):
        forbid_overrides({"flows.3.delay_bound": 0.03},
                         {"flows.*.delay_bound": "delay_requirement axis"})
    with pytest.raises(ValueError, match="clashes with"):
        forbid_overrides({"bridges.0.share_a": 0.9},
                         {"bridges.*.share_a": "bridge_share axis"})


def test_mutated_spec_revalidates(spec):
    # an override that produces an invalid spec fails at the override site
    with pytest.raises(ValueError, match="cannot set"):
        override_spec(spec, "poller.kind", "quantum")
