"""Declarative spec mutation: dotted-path overrides decoded by declared type.

Sweep grids and the CLI's ``--set`` flag mutate scenario specs by *path*
instead of threading new keyword arguments through every layer::

    apply_overrides(spec, {"channel.ber": 1e-4})
    apply_overrides(spec, {"piconets.0.flows.2.delay_bound": 0.03})
    apply_overrides(spec, {"A.improvements.variable_interval": False})
    apply_overrides(spec, {"timeline.events.0.at_s": 0.3})
    apply_overrides(spec, {"timeline.events.8.tolerance": 0.05})

Paths anchor at the :class:`~repro.scenario.specs.ScenarioSpec`; as a
convenience, a leading segment that names a piconet routes into it, and —
for single-piconet scenarios — a leading segment that is a
:class:`~repro.scenario.specs.PiconetSpec` field routes into the only
piconet (so ``channel.ber`` means ``piconets.0.channel.ber``).  Tuple
fields are indexed numerically (``flows.2``).  A value is decoded by
:func:`repro.scenario.specs.decode` against the *declared* type of the
field or tuple element it replaces — the same codec ``from_dict`` and the
spec constructors use, so a ``--set`` value and the same value in a
serialized payload give the same spec (int -> float, JSON list -> tuple,
integral float -> int, mapping -> spec).  Everything else — unknown paths,
bad indices, values of the wrong type — raises a one-line ``ValueError``
(``cannot set '<path>': ...``), which the experiments CLI turns into a
clean ``SystemExit``.

Every mutation rebuilds the frozen dataclass chain via
``dataclasses.replace``, so the specs' construction-time validation
re-runs on the mutated result.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Any, Callable, Mapping, Union

from repro.scenario.specs import (
    PiconetSpec,
    ScenarioSpec,
    Spec,
    declared_types,
    decode,
)


def _item_type(hint: Any, index: int) -> Any:
    """The declared type of element ``index`` of a tuple-typed field."""
    if typing.get_origin(hint) is Union:
        hint = next(member for member in typing.get_args(hint)
                    if typing.get_origin(member) is tuple)
    args = typing.get_args(hint)
    return args[0] if args[-1] is Ellipsis else args[index]


def _decode_at(hint: Any, value: Any, path: str) -> Any:
    try:
        return decode(hint, value)
    except ValueError as error:
        raise ValueError(f"cannot set {path!r}: {error}") from None


def _set_on(obj: Any, segments: list, value: Any, path: str,
            hint: Any = None) -> Any:
    """Return a copy of ``obj`` (of declared type ``hint``) with
    ``segments`` replaced by ``value``, decoded against the declared type
    of the field or tuple element it replaces."""
    head, rest = segments[0], segments[1:]
    if isinstance(obj, Spec):
        types = declared_types(type(obj))
        if head not in types:
            raise ValueError(
                f"cannot set {path!r}: {type(obj).__name__} has no field "
                f"{head!r}; known: {', '.join(types)}")
        replacement = _set_on(getattr(obj, head), rest, value, path,
                              types[head]) if rest \
            else _decode_at(types[head], value, path)
        try:
            return dataclasses.replace(obj, **{head: replacement})
        except ValueError as error:
            raise ValueError(f"cannot set {path!r}: {error}") from None
    if isinstance(obj, tuple):
        try:
            index = int(head)
        except ValueError:
            raise ValueError(
                f"cannot set {path!r}: {head!r} is not an index into a "
                f"sequence of {len(obj)} element(s)") from None
        if not 0 <= index < len(obj):
            raise ValueError(
                f"cannot set {path!r}: index {index} out of range for "
                f"{len(obj)} element(s)")
        item = _item_type(hint, index)
        replacement = _set_on(obj[index], rest, value, path, item) if rest \
            else _decode_at(item, value, path)
        return obj[:index] + (replacement,) + obj[index + 1:]
    raise ValueError(
        f"cannot set {path!r}: cannot descend into a "
        f"{type(obj).__name__} value with segment {head!r}")


def _anchor(spec: ScenarioSpec, path: str) -> str:
    """Resolve the convenience anchors of a path's first segment."""
    head = path.split(".", 1)[0]
    scenario_fields = {f.name for f in dataclasses.fields(ScenarioSpec)}
    if head in scenario_fields:
        return path
    names = [piconet.name for piconet in spec.piconets]
    if head in names:
        index = names.index(head)
        rest = path.split(".", 1)
        if len(rest) == 1:
            raise ValueError(
                f"cannot set {path!r}: a piconet name needs a field after "
                f"it (e.g. {head}.channel.ber)")
        return f"piconets.{index}.{rest[1]}"
    piconet_fields = {f.name for f in dataclasses.fields(PiconetSpec)}
    if head in piconet_fields and len(spec.piconets) == 1:
        return f"piconets.0.{path}"
    known = sorted(scenario_fields | set(names)
                   | (piconet_fields if len(spec.piconets) == 1 else set()))
    raise ValueError(
        f"unknown scenario field {head!r} in override {path!r}; known "
        f"anchors: {', '.join(known)}")


def override_spec(spec: ScenarioSpec, path: str, value: Any) -> ScenarioSpec:
    """One dotted-path override applied to ``spec`` (returns a new spec)."""
    resolved = _anchor(spec, path)
    return _set_on(spec, resolved.split("."), value, path)


def apply_overrides(spec: ScenarioSpec,
                    overrides: Mapping[str, Any]) -> ScenarioSpec:
    """Apply every ``path -> value`` override, in sorted path order."""
    for path in sorted(overrides):
        spec = override_spec(spec, path, overrides[path])
    return spec


#: reserved sweep-parameter key carrying a serialized ScenarioSpec dict
SCENARIO_PARAM = "scenario"


def split_spec_overrides(params: Mapping[str, Any]):
    """Separate a point's plain parameters from its dotted spec overrides."""
    plain = {key: value for key, value in params.items() if "." not in key}
    dotted = {key: value for key, value in params.items() if "." in key}
    return plain, dotted


def _path_matches(pattern: str, key: str) -> bool:
    """Whether dotted ``key`` equals or refines ``pattern``.

    Patterns are dotted prefixes whose ``*`` segments match any one
    segment: ``flows.*.delay_bound`` matches ``flows.3.delay_bound`` and
    anything deeper under it.
    """
    pattern_parts = pattern.split(".")
    key_parts = key.split(".")
    if len(key_parts) < len(pattern_parts):
        return False
    return all(expected in ("*", actual)
               for expected, actual in zip(pattern_parts, key_parts))


def forbid_overrides(params: Mapping[str, Any],
                     forbidden: Mapping[str, str]) -> None:
    """Reject dotted overrides of spec fields an experiment's own sweep
    axis controls.

    Drivers whose point parameters map onto spec fields (every driver's
    swept axis does — ``figure5`` turns ``delay_requirement`` into the GS
    flows' ``delay_bound``) call this so a dotted ``--set`` of that field
    fails loudly instead of silently collapsing the contrast the rows are
    labelled by.  ``forbidden`` maps a path pattern (``*`` matches one
    segment; see :func:`_path_matches`) to the parameter that owns it.
    """
    for key in sorted(params):
        if "." not in key:
            continue
        for pattern, owner in forbidden.items():
            if _path_matches(pattern, key):
                raise ValueError(
                    f"override {key!r} clashes with this experiment's own "
                    f"{owner}; set that parameter instead of the spec "
                    f"field")


def resolve_point_spec(params: Mapping[str, Any],
                       factory: Callable[[Mapping[str, Any]], ScenarioSpec]
                       ) -> ScenarioSpec:
    """The :class:`ScenarioSpec` of one sweep point.

    The spec comes from the point's serialized ``"scenario"`` payload when
    present (plain dicts are what execution backends ship across process
    boundaries), otherwise from ``factory(params)``; dotted-path keys in
    ``params`` are then applied as declarative overrides.  This is the
    single resolution path shared by every spec-backed experiment driver
    and the CLI's ``--set`` machinery.
    """
    payload = params.get(SCENARIO_PARAM)
    if payload is not None:
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"the {SCENARIO_PARAM!r} parameter must be a serialized "
                f"ScenarioSpec dict, got {payload!r}")
        spec = ScenarioSpec.from_dict(payload)
    else:
        spec = factory(params)
    _plain, dotted = split_spec_overrides(params)
    if dotted:
        spec = apply_overrides(spec, dotted)
    return spec
