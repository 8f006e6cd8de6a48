"""Typed, serializable scenario descriptions.

A :class:`ScenarioSpec` is *data*: a frozen, validated, JSON-round-trippable
description of everything a simulation run needs — piconets with their
declarative flows and SCO reservations, per-link channel models, an
inter-piconet interference field, scatternet bridges, the poller and the
Section-3.2 improvement toggles.  Specs replace the keyword-soup workload
builders: sweep points mutate them declaratively (see
:mod:`repro.scenario.overrides`), execution backends ship them across
process boundaries as plain dicts (:meth:`ScenarioSpec.to_dict` /
:meth:`ScenarioSpec.from_dict`), and :meth:`ScenarioSpec.compile` turns
them into the existing runtime objects (piconet, flows, sources, GS
manager, poller, channel map, interference field, scatternet).

Every spec class derives from :class:`Spec`, which owns the one codec for
plain scenario data (:func:`decode`, README ADR-007): construction decodes
each field against its declared type (a list becomes a tuple, a mapping a
nested spec, an int a float, an integral float an int; a bool or a str is
accepted only as itself) and then runs the class's own range and
cross-field checks (``_validate``).  ``from_dict``, the constructors and
the ``--set`` overrides therefore agree on every value, and an invalid
spec cannot exist — a mutated sweep point fails at the mutation site with
a one-line message, not deep inside a worker.
"""

from __future__ import annotations

import functools
import typing
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.piconet.bridge import BridgeSchedule
from repro.piconet.flows import BE, DOWNLINK, GS, UPLINK

#: channel models a :class:`ChannelSpec` may name
CHANNEL_MODELS = ("ideal", "iid", "gilbert")

#: admission-control modes an :class:`AdmissionSpec` may name
ADMISSION_MODES = ("oblivious", "budget-aware")

#: SCO packet types a :class:`ScoSpec` may reserve
SCO_PACKET_TYPES = ("HV1", "HV2", "HV3")

#: baseline poller kinds (the Section-3 survey; see
#: :data:`repro.scenario.compile.BASELINE_POLLER_FACTORIES`)
BASELINE_POLLER_KINDS = (
    "pure-round-robin",
    "limited-round-robin",
    "exhaustive",
    "fep",
    "edc",
    "hol-priority",
    "demand-based",
)

#: every poller kind a :class:`PollerSpec` may name
POLLER_KINDS = ("pfp", "round_robin", "none") + BASELINE_POLLER_KINDS

#: event kinds a :class:`EventSpec` may name
EVENT_KINDS = (
    "park",
    "unpark",
    "bridge-roam",
    "flow-add",
    "flow-remove",
    "flow-renegotiate",
    "interferer-on",
    "interferer-off",
)

#: declarative packet size: a fixed size or an inclusive ``(min, max)``
#: range drawn uniformly per packet (the distinction matters: a range
#: consumes one RNG draw per packet even when ``min == max``)
SizeSpec = Union[int, Tuple[int, int]]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


class _Mismatch(ValueError):
    """A plain value that does not decode to its declared type."""

    def __init__(self, expected: str, value: Any) -> None:
        super().__init__(f"expected {expected}, got {value!r}")
        self.expected = expected
        self.value = value


#: what a scalar declared type expects, as the error messages name it
_EXPECTED = {bool: "a bool", int: "an integer", float: "a number",
             str: "a string"}


@functools.lru_cache(maxsize=None)
def declared_types(cls: type) -> Dict[str, Any]:
    """Field name -> declared type of spec class ``cls``, in field order
    (resolved once per class; do not mutate)."""
    hints = typing.get_type_hints(cls)
    return {spec_field.name: hints[spec_field.name]
            for spec_field in fields(cls)}


@functools.lru_cache(maxsize=None)
def _field_decoders(cls: type) -> Tuple[Tuple[str, Callable], ...]:
    return tuple((name, _decoder(hint))
                 for name, hint in declared_types(cls).items())


def decode(hint: Any, value: Any) -> Any:
    """The value of declared type ``hint`` that plain ``value`` stands for.

    The one coercion table of the scenario layer (README ADR-007): a
    mapping becomes a spec (through its ``from_dict``); a list or tuple
    becomes a ``Tuple[X, ...]`` element by element (a string never does);
    ``Optional``/``Union`` decode against the member matching the value's
    shape (a sequence or not); an int becomes a float; an integral float
    becomes an int; a bool or a str is accepted only as itself.  Anything
    else raises a ``ValueError`` naming what was expected.
    """
    return _decoder(hint)(value)


@functools.lru_cache(maxsize=None)
def _decoder(hint: Any) -> Callable[[Any], Any]:
    """The :func:`decode` table for one declared type, built once per type
    so constructing a spec costs one call per field."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        optional = type(None) in args
        members = [member for member in args if member is not type(None)]
        tuples = [member for member in members
                  if typing.get_origin(member) is tuple]
        others = [member for member in members if member not in tuples]
        on_sequence = _decoder((tuples or members)[0])
        on_other = _decoder((others or members)[0])

        def decode_union(value):
            if value is None and optional:
                return None
            if isinstance(value, (list, tuple)):
                return on_sequence(value)
            return on_other(value)
        return decode_union
    if origin is tuple and args[-1] is Ellipsis:
        item = args[0]
        decode_item = _decoder(item)
        specs = is_dataclass(item)
        expected = f"a list of {item.__name__} mappings" if specs \
            else "a list"

        def decode_tuple(value):
            if not isinstance(value, (list, tuple)) or specs and not all(
                    isinstance(entry, (item, Mapping)) for entry in value):
                raise _Mismatch(expected, value)
            return tuple(map(decode_item, value))
        return decode_tuple
    if origin is tuple:
        decoders = tuple(map(_decoder, args))

        def decode_pair(value):
            if not isinstance(value, (list, tuple)) \
                    or len(value) != len(decoders):
                raise _Mismatch(f"a list of {len(decoders)} items", value)
            return tuple(decode_entry(entry)
                         for decode_entry, entry in zip(decoders, value))
        return decode_pair
    if is_dataclass(hint):
        article = "an" if hint.__name__[0] in "AEIOU" else "a"
        expected = f"{article} {hint.__name__} mapping"

        def decode_spec(value):
            if type(value) is hint:
                return value
            if isinstance(value, Mapping):
                return hint.from_dict(value)
            raise _Mismatch(expected, value)
        return decode_spec
    expected = _EXPECTED[hint]

    def decode_scalar(value):
        if type(value) is hint:
            return value
        if hint is float and type(value) is int:
            try:
                return float(value)
            except OverflowError:
                pass
        if hint is int and type(value) is float and value.is_integer():
            return int(value)
        raise _Mismatch(expected, value)
    return decode_scalar


def _plain(value: Any) -> Any:
    """Render one field value as JSON-compatible plain data."""
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


class Spec:
    """The shared base of every spec dataclass: one codec for plain data.

    Construction decodes each field by its declared type (:func:`decode`)
    and then runs the class's own range and cross-field checks
    (:meth:`_validate`); :meth:`to_dict`/:meth:`from_dict` render and read
    the JSON-compatible form.
    """

    def __post_init__(self) -> None:
        for name, decode_field in _field_decoders(type(self)):
            value = getattr(self, name)
            try:
                decoded = decode_field(value)
            except _Mismatch as error:
                raise ValueError(
                    f"{type(self).__name__}.{name} must be "
                    f"{error.expected}, got {error.value!r}") from None
            if decoded is not value:
                object.__setattr__(self, name, decoded)
        self._validate()

    def _validate(self) -> None:
        """Range and cross-field checks over the decoded fields."""

    def to_dict(self) -> Dict[str, Any]:
        """The canonical plain-dict rendering (JSON-compatible)."""
        return {name: _plain(getattr(self, name))
                for name in declared_types(type(self))}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """The spec ``data`` describes (the inverse of :meth:`to_dict`)."""
        known = declared_types(cls)
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} field(s) {unknown}; "
                f"known: {', '.join(sorted(known))}")
        missing = [spec_field.name for spec_field in fields(cls)
                   if spec_field.default is MISSING
                   and spec_field.name not in data]
        if missing:
            raise ValueError(f"missing {cls.__name__} field(s) {missing}")
        return cls(**data)


@dataclass(frozen=True)
class ImprovementsSpec(Spec):
    """The Section-3.2 poller improvements and admission options."""

    variable_interval: bool = True
    piggyback_aware: bool = True
    postpone_by_packet_size: bool = True
    postpone_after_unsuccessful: bool = True
    skip_when_no_downlink_data: bool = True


@dataclass(frozen=True)
class PollerSpec(Spec):
    """Which intra-piconet scheduler serves the ACL traffic.

    ``kind`` is ``"pfp"`` (the paper's Predictive Fair Poller over the
    Guaranteed Service manager), ``"round_robin"`` (a plain
    ``PureRoundRobinPoller``, optionally restricted to ``only_slaves``),
    ``"none"`` (no ACL scheduling — SCO-only piconets), or one of the
    surveyed baselines (:data:`BASELINE_POLLER_KINDS`).  A baseline kind on
    a piconet with admission-controlled flows still runs the admission
    control (and constructs the PFP it would drive) before the baseline
    poller replaces it — exactly the ``baseline_comparison`` methodology.
    """

    kind: str = "pfp"
    only_slaves: Optional[Tuple[int, ...]] = None

    def _validate(self) -> None:
        _require(self.kind in POLLER_KINDS,
                 f"unknown poller kind {self.kind!r}; known: "
                 f"{', '.join(POLLER_KINDS)}")
        if self.only_slaves is not None:
            _require(self.kind == "round_robin",
                     "only_slaves is only meaningful for the round_robin "
                     f"poller, not {self.kind!r}")
            _require(all(1 <= s <= 7 for s in self.only_slaves),
                     f"only_slaves must be AM addresses in 1..7, got "
                     f"{self.only_slaves!r}")


@dataclass(frozen=True)
class ChannelSpec(Spec):
    """The radio environment of one piconet's links.

    ``model`` selects the error process of every ``(slave, direction)``
    link, each independently seeded from the compile seed's
    ``RandomStreams(seed).child(stream)`` substream family:

    * ``"ideal"`` — the paper's assumption: no transmission errors.
    * ``"iid"`` — independent bit errors at ``ber``; with
      ``slave_ber_scale``, per-slave multipliers on ``ber`` model
      heterogeneous link quality (both directions of a slave share the
      multiplier but keep independent error streams).
    * ``"gilbert"`` — a per-link Gilbert-Elliott burst process whose
      long-run mean BER equals ``ber``: the bad state holds
      ``stationary_bad`` of the time with mean dwell ``1 / p_bg`` slots
      and BER ``min(1, ber / stationary_bad)``; the good state is clean.

    A non-ideal model with ``ber <= 0`` compiles to the ideal channel
    (``None`` — no channel map is constructed at all), matching the
    historical drivers' fast path for error-free sweep points.
    """

    model: str = "ideal"
    ber: float = 0.0
    p_bg: float = 0.02
    stationary_bad: float = 0.1
    slave_ber_scale: Tuple[Tuple[int, float], ...] = ()
    stream: str = "channel-map"

    def _validate(self) -> None:
        _require(self.model in CHANNEL_MODELS,
                 f"unknown channel model {self.model!r}; known: "
                 f"{', '.join(CHANNEL_MODELS)}")
        _require(0.0 <= self.ber <= 1.0,
                 f"ber must lie within [0, 1], got {self.ber}")
        _require(0.0 < self.p_bg <= 1.0,
                 f"p_bg must lie within (0, 1], got {self.p_bg}")
        _require(0.0 < self.stationary_bad < 1.0,
                 f"stationary_bad must lie strictly within (0, 1), got "
                 f"{self.stationary_bad}")
        if self.slave_ber_scale:
            _require(self.model == "iid",
                     "slave_ber_scale only applies to the iid model, not "
                     f"{self.model!r}")
            slaves = [slave for slave, _scale in self.slave_ber_scale]
            _require(all(1 <= s <= 7 for s in slaves),
                     f"slave_ber_scale slaves must lie in 1..7, got {slaves}")
            _require(len(set(slaves)) == len(slaves),
                     f"slave_ber_scale slaves must not repeat: {slaves}")
            _require(all(scale >= 0 for _slave, scale in self.slave_ber_scale),
                     "slave_ber_scale multipliers cannot be negative")
        _require(bool(self.stream),
                 "stream must name a RandomStreams substream")


@dataclass(frozen=True)
class AdmissionSpec(Spec):
    """How Guaranteed Service admission treats the link realities.

    ``"oblivious"`` (the default) is the paper's algorithm on the ideal
    channel — bit-identical to the historical behaviour.  ``"budget-aware"``
    compiles a per-link :class:`~repro.core.link_budget.LinkBudget` from
    the scenario's channel model, interference field and bridge schedules:
    expected retransmissions inflate the error terms and transaction
    times, bridge absence deflates the usable poll interval, and the
    piconet feeds observed poll outcomes back so the manager can flag
    flows whose measured loss exceeds the admitted budget.

    ``loss_margin`` adds to every composed loss probability and
    ``residency_margin`` subtracts from every residency share — operator
    safety margins on top of the analytic budget.  ``estimator_alpha`` /
    ``estimator_seed_loss`` parameterize the runtime loss estimators (the
    seed doubles as a floor on every composed loss, an operator's prior
    for links the analytic model calls clean).
    """

    mode: str = "oblivious"
    loss_margin: float = 0.0
    residency_margin: float = 0.0
    estimator_alpha: float = 0.05
    estimator_seed_loss: float = 0.0

    def _validate(self) -> None:
        _require(self.mode in ADMISSION_MODES,
                 f"unknown admission mode {self.mode!r}; known: "
                 f"{', '.join(ADMISSION_MODES)}")
        _require(0.0 <= self.loss_margin < 1.0,
                 f"loss_margin must lie within [0, 1), got "
                 f"{self.loss_margin}")
        _require(0.0 <= self.residency_margin < 1.0,
                 f"residency_margin must lie within [0, 1), got "
                 f"{self.residency_margin}")
        _require(0.0 < self.estimator_alpha <= 1.0,
                 f"estimator_alpha must lie within (0, 1], got "
                 f"{self.estimator_alpha}")
        _require(0.0 <= self.estimator_seed_loss <= 1.0,
                 f"estimator_seed_loss must lie within [0, 1], got "
                 f"{self.estimator_seed_loss}")

    @property
    def aware(self) -> bool:
        return self.mode == "budget-aware"


@dataclass(frozen=True)
class FlowSpec(Spec):
    """One unidirectional traffic flow and its (optional) CBR source.

    ``interval_s``/``size`` describe the source: one packet of ``size``
    bytes (or drawn uniformly from an inclusive ``(min, max)`` range) every
    ``interval_s`` seconds.  ``interval_s=None`` registers the flow without
    a source (e.g. a best-effort flow at offered load zero).  ``rng_stream``
    names the source's ``RandomStreams`` stream; ``stagger`` draws a random
    phase offset within one interval from that stream.  ``delay_bound`` or
    ``rate`` (at most one) submits the flow to Guaranteed Service admission
    with a token bucket derived from the source parameters
    (``cbr_tspec(interval_s, min, max)``).
    """

    flow_id: int
    slave: int
    direction: str
    traffic_class: str
    interval_s: Optional[float] = None
    size: Optional[SizeSpec] = None
    allowed_types: Optional[Tuple[str, ...]] = None
    rng_stream: Optional[str] = None
    stagger: bool = False
    delay_bound: Optional[float] = None
    rate: Optional[float] = None

    def _validate(self) -> None:
        _require(self.flow_id > 0,
                 f"flow_id must be a positive integer, got {self.flow_id!r}")
        _require(self.direction in (UPLINK, DOWNLINK),
                 f"direction must be {UPLINK!r} or {DOWNLINK!r}, got "
                 f"{self.direction!r}")
        _require(self.traffic_class in (GS, BE),
                 f"traffic_class must be {GS!r} or {BE!r}, got "
                 f"{self.traffic_class!r}")
        _require(1 <= self.slave <= 7,
                 f"slave AM address must lie in 1..7, got {self.slave!r}")
        _require(self.allowed_types != (),
                 "allowed_types may not be empty (use None to inherit "
                 "the piconet default)")
        if self.interval_s is None:
            _require(self.size is None,
                     "size without interval_s describes no source; set both "
                     "or neither")
            _require(not self.stagger,
                     "stagger needs a source (set interval_s)")
        else:
            _require(self.interval_s > 0,
                     f"interval_s must be positive, got {self.interval_s}")
            _require(self.size is not None,
                     "a source needs a packet size (set size)")
            if isinstance(self.size, tuple):
                _require(0 < self.size[0] <= self.size[1],
                         f"size range needs 0 < min <= max, got {self.size}")
            else:
                _require(self.size > 0,
                         f"size must be a positive byte count or a "
                         f"(min, max) range, got {self.size!r}")
        _require(not (self.stagger and self.rng_stream is None),
                 "stagger draws its phase offset from rng_stream; name one")
        _require(self.delay_bound is None or self.rate is None,
                 "specify at most one of delay_bound / rate")
        if self.delay_bound is not None or self.rate is not None:
            _require(self.traffic_class == GS,
                     "only GS flows undergo Guaranteed Service admission")
            _require(self.interval_s is not None,
                     "admission derives the token bucket from the source; "
                     "set interval_s and size")
            if self.delay_bound is not None:
                _require(self.delay_bound > 0,
                         f"delay_bound must be positive, got "
                         f"{self.delay_bound}")
            if self.rate is not None:
                _require(self.rate > 0,
                         f"rate must be positive, got {self.rate}")

    @property
    def gs_managed(self) -> bool:
        """Whether the flow undergoes Guaranteed Service admission."""
        return self.delay_bound is not None or self.rate is not None

    @property
    def size_bounds(self) -> Tuple[int, int]:
        """The source's (min, max) packet size in bytes."""
        if isinstance(self.size, tuple):
            return self.size
        return (self.size, self.size)


@dataclass(frozen=True)
class ScoSpec(Spec):
    """One reserved SCO voice link on a slave.

    The bound uplink/downlink flows (by id) must live on the same slave and
    use the SCO packet type as their only allowed type, so segmentation
    matches the reserved packet size.
    """

    slave: int
    packet_type: str = "HV3"
    dl_flow_id: Optional[int] = None
    ul_flow_id: Optional[int] = None

    def _validate(self) -> None:
        _require(1 <= self.slave <= 7,
                 f"slave AM address must lie in 1..7, got {self.slave!r}")
        _require(self.packet_type in SCO_PACKET_TYPES,
                 f"packet_type must be one of {', '.join(SCO_PACKET_TYPES)}, "
                 f"got {self.packet_type!r}")


@dataclass(frozen=True)
class PiconetSpec(Spec):
    """One piconet: slaves, flows, SCO reservations, channel and poller.

    ``rng_namespace`` scopes the piconet's source streams to a
    ``RandomStreams(seed).child(namespace)`` family, so several piconets of
    one scenario draw from disjoint stream families (the bridge scenario's
    piconet B uses ``"piconet-b"``); ``None`` keeps the root family.
    """

    name: str = "piconet"
    slaves: Tuple[str, ...] = ("S1", "S2", "S3", "S4", "S5", "S6", "S7")
    flows: Tuple[FlowSpec, ...] = ()
    sco_links: Tuple[ScoSpec, ...] = ()
    allowed_types: Tuple[str, ...] = ("DH1", "DH3")
    adaptive_segmentation: bool = False
    robust_types: Tuple[str, ...] = ("DM1", "DM3")
    align_even_slots: bool = True
    channel: ChannelSpec = ChannelSpec()
    poller: PollerSpec = PollerSpec()
    improvements: ImprovementsSpec = ImprovementsSpec()
    admission: AdmissionSpec = AdmissionSpec()
    rng_namespace: Optional[str] = None

    def _validate(self) -> None:
        _require(bool(self.name), "a piconet needs a non-empty name")
        _require(1 <= len(self.slaves) <= 7,
                 f"a piconet holds 1..7 slaves, got {len(self.slaves)}")
        _require(bool(self.allowed_types), "allowed_types may not be empty")
        flow_ids = [flow.flow_id for flow in self.flows]
        _require(len(set(flow_ids)) == len(flow_ids),
                 f"flow ids must be unique, got {flow_ids}")
        for flow in self.flows:
            _require(flow.slave <= len(self.slaves),
                     f"flow {flow.flow_id} addresses slave {flow.slave} but "
                     f"the piconet has {len(self.slaves)} slave(s)")
        by_id = {flow.flow_id: flow for flow in self.flows}
        sco_slaves = [sco.slave for sco in self.sco_links]
        _require(len(set(sco_slaves)) == len(sco_slaves),
                 f"at most one SCO link per slave, got {sco_slaves}")
        for sco in self.sco_links:
            _require(sco.slave <= len(self.slaves),
                     f"SCO link addresses slave {sco.slave} but the piconet "
                     f"has {len(self.slaves)} slave(s)")
            for flow_id in (sco.dl_flow_id, sco.ul_flow_id):
                if flow_id is None:
                    continue
                _require(flow_id in by_id,
                         f"SCO link on slave {sco.slave} binds unknown flow "
                         f"id {flow_id}")
                _require(by_id[flow_id].slave == sco.slave,
                         f"SCO-bound flow {flow_id} lives on slave "
                         f"{by_id[flow_id].slave}, not {sco.slave}")

    @property
    def sco_flow_ids(self) -> Tuple[int, ...]:
        """Flow ids carried over SCO reservations, in flow order."""
        bound = {flow_id for sco in self.sco_links
                 for flow_id in (sco.dl_flow_id, sco.ul_flow_id)
                 if flow_id is not None}
        return tuple(flow.flow_id for flow in self.flows
                     if flow.flow_id in bound)


@dataclass(frozen=True)
class InterferenceSpec(Spec):
    """Co-located piconets modelled as an interference field.

    The scenario's (single) simulated piconet registers as ``victim`` with
    duty cycle 1.0; every entry of ``interferer_duties`` registers one
    co-located piconet with that duty cycle.  The victim's links compose
    their base channel (the piconet's :class:`ChannelSpec`) with the
    field's hop-collision BER through ``InterferenceAwareChannel``.

    With ``coupled=True`` the scenario may carry *several* fully simulated
    piconets: every one of them registers as a coupled member whose
    *actual* transmissions (reported by the master loop's air recorder)
    drive everyone else's collision BER — the honest crowded-room mode.
    ``victim`` must still name the first piconet (the scenario's primary,
    where dotted overrides anchor); ``interferer_duties`` may add further
    duty-cycle background noise on top.
    """

    victim: str = "victim"
    interferer_duties: Tuple[float, ...] = ()
    ber_per_collision: Optional[float] = None
    coupled: bool = False
    stream: str = "interference"
    map_stream: str = "channel-map"

    def _validate(self) -> None:
        _require(bool(self.victim), "the victim piconet needs a name")
        _require(all(0.0 <= duty <= 1.0 for duty in self.interferer_duties),
                 f"interferer duty cycles must lie within [0, 1], got "
                 f"{self.interferer_duties!r}")
        if self.ber_per_collision is not None:
            _require(0.0 < self.ber_per_collision <= 1.0,
                     f"ber_per_collision must lie within (0, 1], got "
                     f"{self.ber_per_collision}")
        _require(bool(self.stream) and bool(self.map_stream),
                 "stream and map_stream must name RandomStreams substreams")


@dataclass(frozen=True)
class BridgeSpec(Spec):
    """One scatternet bridge time-sharing two of the scenario's piconets.

    ``negotiated`` models a hold agreement the masters know about: instead
    of burning a transaction's slots on a guaranteed failure, a master
    skips planned polls to the absent bridge (counted as
    ``bridge_skipped_polls`` in the slot accounting) and retries once the
    bridge is back.
    """

    piconet_a: str = "A"
    slave_a: int = 3
    piconet_b: str = "B"
    slave_b: int = 1
    share_a: float = 0.5
    period_slots: int = 96
    switch_slots: int = 2
    negotiated: bool = False
    name: str = "bridge"

    def _validate(self) -> None:
        for label, slave in (("slave_a", self.slave_a),
                             ("slave_b", self.slave_b)):
            _require(1 <= slave <= 7,
                     f"{label} must be an AM address in 1..7, got {slave!r}")
        _require(self.piconet_a != self.piconet_b,
                 "a bridge links two distinct piconets")
        _require(bool(self.name), "a bridge needs a non-empty name")
        # delegate the time-division constraints (period, share, guards) to
        # the schedule's own validation so the messages stay in one place
        self.schedule()

    def schedule(self) -> BridgeSchedule:
        """The validated time-division policy of this bridge."""
        return BridgeSchedule(period_slots=self.period_slots,
                              share_a=self.share_a,
                              switch_slots=self.switch_slots)


@dataclass(frozen=True)
class EventSpec(Spec):
    """One scheduled topology or load change on the scenario's timeline.

    ``at_s`` is the simulation time (seconds from the start of the run) at
    which the event fires; events at equal times fire in spec order.  The
    fields a ``kind`` uses:

    * ``"park"`` / ``"unpark"`` — ``slave`` (AM address) on ``piconet``.
      Parking detaches the slave's flow states from the master loop (the
      poller stops seeing them, arrivals keep queueing) and withdraws its
      admitted GS flows from the manager; unparking reverses both.
    * ``"bridge-roam"`` — ``bridge`` (a :class:`BridgeSpec` name) adopts a
      new residency ``share_a``; presence re-registers on both masters.
    * ``"flow-add"`` — ``flow`` (a full :class:`FlowSpec`) joins
      ``piconet``: flow state, traffic source and (for GS flows) admission.
    * ``"flow-remove"`` — ``flow_id`` leaves ``piconet``: source stopped,
      admission withdrawn, flow state and queued segments detached.
    * ``"flow-renegotiate"`` — renegotiate-on-violation for ``flow_id``:
      when the flow's measured loss exceeds its admitted budget by
      ``tolerance`` (after ``min_observations`` link observations), the GS
      manager renegotiates at the measured loss; a flow not yet flagged is
      re-checked up to ``max_retries`` times every ``backoff_s`` seconds.
      A rejected renegotiation evicts the flow (clean detach).
    * ``"interferer-on"`` / ``"interferer-off"`` — the 1-based
      ``interferer`` of the scenario's interference field starts/stops
      transmitting from the event slot forward (a microwave or Wi-Fi
      burst schedule); the field's occupancy index rebuilds from the
      event slot.
    """

    at_s: float
    kind: str
    piconet: Optional[str] = None
    slave: Optional[int] = None
    bridge: Optional[str] = None
    share_a: Optional[float] = None
    flow: Optional[FlowSpec] = None
    flow_id: Optional[int] = None
    interferer: Optional[int] = None
    max_retries: int = 3
    backoff_s: float = 0.1
    min_observations: int = 25
    tolerance: float = 0.05

    def _validate(self) -> None:
        _require(self.at_s >= 0,
                 f"at_s must be a non-negative time in seconds, got "
                 f"{self.at_s!r}")
        _require(self.kind in EVENT_KINDS,
                 f"unknown event kind {self.kind!r}; known: "
                 f"{', '.join(EVENT_KINDS)}")
        used = {name for name in ("slave", "bridge", "share_a", "flow",
                                  "flow_id", "interferer")
                if getattr(self, name) is not None}
        needed = {
            "park": {"slave"},
            "unpark": {"slave"},
            "bridge-roam": {"bridge", "share_a"},
            "flow-add": {"flow"},
            "flow-remove": {"flow_id"},
            "flow-renegotiate": {"flow_id"},
            "interferer-on": {"interferer"},
            "interferer-off": {"interferer"},
        }[self.kind]
        extra = used - needed - {"piconet"}
        _require(used >= needed,
                 f"{self.kind!r} event needs {sorted(needed)} "
                 f"(got {sorted(used) or 'nothing'})")
        _require(not extra,
                 f"{self.kind!r} event does not use {sorted(extra)}")
        if self.slave is not None:
            _require(1 <= self.slave <= 7,
                     f"slave AM address must lie in 1..7, got {self.slave!r}")
        if self.share_a is not None:
            _require(0.0 <= self.share_a <= 1.0,
                     f"share_a must lie within [0, 1], got {self.share_a}")
        if self.flow_id is not None:
            _require(self.flow_id > 0,
                     f"flow_id must be a positive integer, got "
                     f"{self.flow_id!r}")
        if self.interferer is not None:
            _require(self.interferer >= 1,
                     f"interferer must be a 1-based index, got "
                     f"{self.interferer!r}")
        _require(self.max_retries >= 0,
                 f"max_retries must be a non-negative integer, got "
                 f"{self.max_retries!r}")
        _require(self.backoff_s > 0,
                 f"backoff_s must be positive, got {self.backoff_s}")
        _require(self.min_observations >= 1,
                 f"min_observations must be a positive integer, got "
                 f"{self.min_observations!r}")
        _require(0.0 <= self.tolerance < 1.0,
                 f"tolerance must lie within [0, 1), got {self.tolerance}")


@dataclass(frozen=True)
class TimelineSpec(Spec):
    """The scenario's ordered schedule of :class:`EventSpec` changes.

    Events must be ordered by ``at_s`` (non-decreasing); equal-time events
    fire in spec order.  An empty timeline is the default and compiles to
    nothing at all — scenarios without one are byte-identical to the
    pre-timeline behaviour.
    """

    events: Tuple[EventSpec, ...] = ()

    def _validate(self) -> None:
        times = [event.at_s for event in self.events]
        _require(all(a <= b for a, b in zip(times, times[1:])),
                 f"timeline events must be ordered by at_s, got {times}")

    def __bool__(self) -> bool:
        return bool(self.events)


@dataclass(frozen=True)
class ScenarioSpec(Spec):
    """A complete, serializable scenario: piconets, interference, bridges.

    ``compile(seed)`` produces the runtime objects (see
    :mod:`repro.scenario.compile`); ``to_dict``/``from_dict`` round-trip
    the spec through plain JSON-compatible data.
    """

    piconets: Tuple[PiconetSpec, ...] = (PiconetSpec(),)
    interference: Optional[InterferenceSpec] = None
    bridges: Tuple[BridgeSpec, ...] = ()
    timeline: TimelineSpec = TimelineSpec()

    def _validate(self) -> None:
        _require(bool(self.piconets), "a scenario needs at least one piconet")
        names = [piconet.name for piconet in self.piconets]
        _require(len(set(names)) == len(names),
                 f"piconet names must be unique, got {names}")
        by_name = {piconet.name: piconet for piconet in self.piconets}
        for bridge in self.bridges:
            for role, name, slave in (("A", bridge.piconet_a, bridge.slave_a),
                                      ("B", bridge.piconet_b,
                                       bridge.slave_b)):
                _require(name in by_name,
                         f"bridge {bridge.name!r} residency {role} names "
                         f"unknown piconet {name!r}; known: "
                         f"{', '.join(sorted(by_name))}")
                _require(slave <= len(by_name[name].slaves),
                         f"bridge {bridge.name!r} residency {role} addresses "
                         f"slave {slave} but piconet {name!r} has "
                         f"{len(by_name[name].slaves)} slave(s)")
        if self.interference is not None:
            _require(self.interference.coupled or len(self.piconets) == 1,
                     "an uncoupled interference field applies to a "
                     "single-piconet scenario (the victim); model the other "
                     "piconets as interferer duty cycles, or set "
                     "interference.coupled for fully simulated coupling")
            _require(self.interference.victim == self.piconets[0].name,
                     f"interference.victim "
                     f"{self.interference.victim!r} must name the "
                     f"scenario's piconet {self.piconets[0].name!r} (so "
                     f"dotted overrides can anchor at it)")
        self._validate_timeline(by_name)

    def _validate_timeline(self, by_name: Dict[str, PiconetSpec]) -> None:
        """Cross-check every timeline event against the scenario members."""
        bridge_names = {bridge.name for bridge in self.bridges}
        bridge_slaves = {(bridge.piconet_a, bridge.slave_a)
                         for bridge in self.bridges}
        bridge_slaves |= {(bridge.piconet_b, bridge.slave_b)
                          for bridge in self.bridges}
        # flow ids known per piconet, updated as add/remove events apply
        flow_ids = {name: {flow.flow_id for flow in piconet.flows}
                    for name, piconet in by_name.items()}
        gs_piconets = {name for name, piconet in by_name.items()
                       if any(flow.gs_managed for flow in piconet.flows)}
        for index, event in enumerate(self.timeline.events):
            where = f"timeline event {index} ({event.kind!r})"
            target = event.piconet or self.piconets[0].name
            _require(target in by_name,
                     f"{where} names unknown piconet {target!r}; known: "
                     f"{', '.join(sorted(by_name))}")
            piconet = by_name[target]
            if event.kind in ("park", "unpark"):
                _require(event.slave <= len(piconet.slaves),
                         f"{where} addresses slave {event.slave} but piconet "
                         f"{target!r} has {len(piconet.slaves)} slave(s)")
                _require((target, event.slave) not in bridge_slaves,
                         f"{where} would park bridge slave {event.slave} of "
                         f"piconet {target!r}; roam the bridge instead")
            elif event.kind == "bridge-roam":
                _require(event.bridge in bridge_names,
                         f"{where} names unknown bridge {event.bridge!r}; "
                         f"known: {', '.join(sorted(bridge_names)) or 'none'}")
            elif event.kind == "flow-add":
                _require(event.flow.flow_id not in flow_ids[target],
                         f"{where} re-uses flow id {event.flow.flow_id} "
                         f"already present on piconet {target!r}")
                _require(event.flow.slave <= len(piconet.slaves),
                         f"{where} addresses slave {event.flow.slave} but "
                         f"piconet {target!r} has {len(piconet.slaves)} "
                         f"slave(s)")
                _require(not event.flow.gs_managed or target in gs_piconets,
                         f"{where} adds a GS flow but piconet {target!r} has "
                         f"no GS manager (no statically admitted GS flows)")
                flow_ids[target].add(event.flow.flow_id)
            elif event.kind in ("flow-remove", "flow-renegotiate"):
                _require(event.flow_id in flow_ids[target],
                         f"{where} names unknown flow id {event.flow_id} on "
                         f"piconet {target!r}")
                if event.kind == "flow-remove":
                    flow_ids[target].discard(event.flow_id)
                else:
                    _require(target in gs_piconets,
                             f"{where} needs a GS manager on piconet "
                             f"{target!r}")
            else:  # interferer-on / interferer-off
                _require(self.interference is not None,
                         f"{where} needs an interference field")
                count = len(self.interference.interferer_duties)
                _require(event.interferer <= count,
                         f"{where} names interferer {event.interferer} but "
                         f"the field has {count} interferer(s)")

    def piconet(self, name: str) -> PiconetSpec:
        """The piconet spec called ``name``."""
        for piconet in self.piconets:
            if piconet.name == name:
                return piconet
        known = ", ".join(p.name for p in self.piconets)
        raise KeyError(f"unknown piconet {name!r}; known: {known}")

    def compile(self, seed: int):
        """Build the runtime objects of this scenario (see
        :func:`repro.scenario.compile.compile_scenario`)."""
        from repro.scenario.compile import compile_scenario
        return compile_scenario(self, seed)
