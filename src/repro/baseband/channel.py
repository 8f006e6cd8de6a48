"""Radio channel models and the per-link channel subsystem.

The paper's evaluation assumes an ideal radio environment (no transmission
errors, no retransmissions).  The lossy models implement the paper's stated
future work — a non-ideal environment in which the slots saved by the
variable-interval poller can be spent on retransmissions.

Three layers:

* **Error decomposition** (:mod:`repro.baseband.fec`) — a bit error rate is
  turned into per-section probabilities: access-code miss, header (1/3 FEC)
  failure, and payload (CRC / 2/3 FEC / uncoded) corruption.
* **Channel models** — :class:`IdealChannel`, :class:`LossyChannel`
  (independent errors) and :class:`GilbertElliottChannel` (two-state burst
  errors whose state evolves per elapsed *slot*, not per transmission).
  Each answers :meth:`Channel.transmit` with a :class:`TransmissionResult`
  separating "never received" (access/header) from "received but the
  payload CRC failed" — the first is a silent loss, the second a NAK.
* **The channel map** (:class:`ChannelMap`) — assigns an independent,
  deterministically seeded channel instance to every ``(slave, direction)``
  link of a piconet, using :class:`repro.sim.rng.RandomStreams` substreams
  so per-link error sequences are reproducible regardless of the order in
  which links first transmit.

ARQ itself (re-queueing a failed segment) is handled by the piconet layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.baseband.constants import SLOT_US
from repro.baseband.fec import (
    PacketErrorProbabilities,
    packet_error_probabilities,
)
from repro.baseband.packets import BasebandPacket

#: Bits of baseband overhead per packet (access code + encoded header);
#: kept for analytical callers sizing packets on the air.
PACKET_OVERHEAD_BITS = 72 + 54

#: A directed master<->slave link: ``(slave AM address, direction)`` where
#: the direction is ``"DL"`` (master to slave) or ``"UL"``.
LinkId = Tuple[int, str]


@dataclass(frozen=True)
class TransmissionResult:
    """Outcome of one baseband packet on the air.

    ``received`` — the access code was detected and the header decoded; the
    receiver knows the packet exists (and can acknowledge the transaction).
    ``payload_intact`` — the payload survived (CRC passed, or FEC corrected
    every error).  A received packet with a corrupted payload is NAKed by
    ARQ; on CRC-less SCO payloads the corruption is a *residual* error in
    the delivered frame.
    """

    received: bool
    payload_intact: bool

    @property
    def ok(self) -> bool:
        """Whether the packet was delivered error-free."""
        return self.received and self.payload_intact

    def __bool__(self) -> bool:
        return self.ok


#: The three outcomes: every channel returns one, so compare by identity.
TX_OK = TransmissionResult(received=True, payload_intact=True)
TX_NOT_RECEIVED = TransmissionResult(received=False, payload_intact=False)
TX_PAYLOAD_CORRUPT = TransmissionResult(received=True, payload_intact=False)


class Channel:
    """Base class for channel models (one instance serves one link)."""

    def error_probabilities(self, packet: BasebandPacket
                            ) -> PacketErrorProbabilities:
        """Per-section corruption probabilities for ``packet`` right now."""
        raise NotImplementedError

    def packet_error_probability(self, packet: BasebandPacket) -> float:
        """Probability that ``packet`` fails in any section."""
        return self.error_probabilities(packet).any

    def transmit(self, packet: BasebandPacket,
                 now_us: Optional[int] = None) -> TransmissionResult:
        """Put ``packet`` on the air at simulation time ``now_us``.

        ``now_us`` lets stateful channels advance their link state by the
        *elapsed time* since the previous transmission; stateless channels
        ignore it, and omitting it falls back to per-transmission stepping.
        The result is one of the three ``TX_*`` singletons.
        """
        raise NotImplementedError


class IdealChannel(Channel):
    """The paper's assumption: every transmission succeeds."""

    def error_probabilities(self, packet: BasebandPacket
                            ) -> PacketErrorProbabilities:
        return PacketErrorProbabilities(access=0.0, header=0.0, payload=0.0)

    def transmit(self, packet: BasebandPacket,
                 now_us: Optional[int] = None) -> TransmissionResult:
        return TX_OK


class _StochasticChannel(Channel):
    """Shared sampling logic: draw the per-section outcome of one packet."""

    rng: random.Random

    def _sample(self, probabilities: PacketErrorProbabilities
                ) -> TransmissionResult:
        not_received = probabilities.not_received
        if not_received > 0.0 and self.rng.random() < not_received:
            return TX_NOT_RECEIVED
        if probabilities.payload > 0.0 and \
                self.rng.random() < probabilities.payload:
            return TX_PAYLOAD_CORRUPT
        return TX_OK


class LossyChannel(_StochasticChannel):
    """Independent (Bernoulli) errors per packet.

    With ``bit_error_rate`` the per-section probabilities come from the real
    code model in :mod:`repro.baseband.fec` — the 1/3 repetition header, the
    (15, 10) shortened-Hamming payload of DM/HV2 types, uncoded DH/HV3
    payloads — so FEC-protected types genuinely trade payload capacity for
    robustness.  With ``packet_error_rate`` the whole packet fails with a
    fixed probability, surfaced as a payload/CRC failure (the legacy model
    for quick qualitative runs).
    """

    def __init__(self, packet_error_rate: Optional[float] = None,
                 bit_error_rate: Optional[float] = None,
                 rng: Optional[random.Random] = None):
        if (packet_error_rate is None) == (bit_error_rate is None):
            raise ValueError(
                "specify exactly one of packet_error_rate / bit_error_rate")
        if packet_error_rate is not None and not 0 <= packet_error_rate <= 1:
            raise ValueError("packet_error_rate must be within [0, 1]")
        if bit_error_rate is not None and not 0 <= bit_error_rate <= 1:
            raise ValueError("bit_error_rate must be within [0, 1]")
        self.packet_error_rate = packet_error_rate
        self.bit_error_rate = bit_error_rate
        self.rng = rng if rng is not None else random.Random(0)
        # the decomposition is a pure function of (type, payload) at a
        # fixed rate, and a run only ever sees a handful of shapes — memo
        # it off the per-transmission hot path.  Misses fall through to
        # the process-wide lru table in repro.baseband.fec, so per-link
        # instances share one decomposition per shape.
        self._memo: Dict[Tuple[str, int], PacketErrorProbabilities] = {}

    def error_probabilities(self, packet: BasebandPacket
                            ) -> PacketErrorProbabilities:
        key = (packet.ptype.name, packet.payload)
        probabilities = self._memo.get(key)
        if probabilities is None:
            if self.packet_error_rate is not None:
                probabilities = PacketErrorProbabilities(
                    access=0.0, header=0.0, payload=self.packet_error_rate)
            else:
                probabilities = packet_error_probabilities(
                    packet, self.bit_error_rate)
            self._memo[key] = probabilities
        return probabilities

    def transmit(self, packet: BasebandPacket,
                 now_us: Optional[int] = None) -> TransmissionResult:
        return self._sample(self.error_probabilities(packet))


class GilbertElliottChannel(_StochasticChannel):
    """Two-state burst-error channel (good/bad states).

    ``p_gb`` and ``p_bg`` are the per-*slot* transition probabilities from
    good to bad and back.  When :meth:`transmit` is given the simulation
    time, the state is advanced over every slot elapsed since the previous
    transmission (using the exact two-state closed form, so a long idle gap
    costs one draw, not one per slot) — fades evolve with time on the link,
    not with the polling rate.  Without a timestamp the state steps once
    per transmission (the legacy behaviour).

    Per-state errors are specified either as bit error rates (``ber_good``/
    ``ber_bad``, combined with the real FEC model) or as flat packet error
    rates (``per_good``/``per_bad``, surfaced as payload failures).
    """

    def __init__(self, p_gb: float = 0.01, p_bg: float = 0.1,
                 per_good: Optional[float] = None,
                 per_bad: Optional[float] = None,
                 ber_good: Optional[float] = None,
                 ber_bad: Optional[float] = None,
                 rng: Optional[random.Random] = None,
                 slot_us: int = SLOT_US):
        per_mode = per_good is not None or per_bad is not None
        ber_mode = ber_good is not None or ber_bad is not None
        if per_mode and ber_mode:
            raise ValueError(
                "specify per-state errors as per_* or ber_*, not both")
        if not per_mode and not ber_mode:
            per_good, per_bad = 0.0, 0.5
            per_mode = True
        if per_mode:
            per_good = 0.0 if per_good is None else per_good
            per_bad = 0.5 if per_bad is None else per_bad
        else:
            ber_good = 0.0 if ber_good is None else ber_good
            ber_bad = 0.01 if ber_bad is None else ber_bad
        for name, value in (("p_gb", p_gb), ("p_bg", p_bg),
                            ("per_good", per_good), ("per_bad", per_bad),
                            ("ber_good", ber_good), ("ber_bad", ber_bad)):
            if value is not None and not 0 <= value <= 1:
                raise ValueError(f"{name} must be within [0, 1]")
        if slot_us <= 0:
            raise ValueError(f"slot_us must be positive, got {slot_us}")
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.per_good = per_good
        self.per_bad = per_bad
        self.ber_good = ber_good
        self.ber_bad = ber_bad
        self.rng = rng if rng is not None else random.Random(0)
        self.slot_us = slot_us
        self.state_good = True
        self._last_update_us: Optional[int] = None
        # per-state decomposition memo (see LossyChannel): keyed by the
        # state and the packet shape, both error parameters are fixed;
        # misses share the process-wide (type, payload, ber) table in
        # repro.baseband.fec across all links
        self._memo: Dict[Tuple[bool, str, int], PacketErrorProbabilities] = {}
        # n-step bad probability per (gap slots, state): few distinct gaps
        self._n_step_memo: Dict[Tuple[int, bool], float] = {}

    # -- state evolution -----------------------------------------------------
    @property
    def stationary_bad(self) -> float:
        """Long-run probability of the bad state, ``p_gb / (p_gb + p_bg)``."""
        total = self.p_gb + self.p_bg
        return self.p_gb / total if total > 0 else 0.0

    def stationary_error_rate(self, packet: BasebandPacket) -> float:
        """Long-run packet error probability under the stationary state mix."""
        bad = self.stationary_bad
        return ((1.0 - bad) * self._state_probabilities(packet, good=True).any
                + bad * self._state_probabilities(packet, good=False).any)

    def _advance_state(self) -> None:
        """One per-transmission state step (legacy, timestamp-less mode)."""
        if self.state_good:
            if self.rng.random() < self.p_gb:
                self.state_good = False
        else:
            if self.rng.random() < self.p_bg:
                self.state_good = True

    def n_step_bad_probability(self, slots: int,
                               from_good: Optional[bool] = None) -> float:
        """Exact ``P(bad after slots | state now)`` of the two-state chain.

        The chain's transition matrix has eigenvalue ``1 - p_gb - p_bg``,
        giving the closed form ``pi_bad + (p0 - pi_bad) * decay**slots``
        where ``p0`` is the current bad-probability (0 or 1) — so advancing
        over any idle gap costs one evaluation, not one per slot.
        ``from_good`` defaults to the channel's current state.
        """
        if slots < 0:
            raise ValueError(f"slots must be >= 0, got {slots}")
        if from_good is None:
            from_good = self.state_good
        start_bad = 0.0 if from_good else 1.0
        if slots == 0:
            return start_bad
        total = self.p_gb + self.p_bg
        if total == 0.0:
            return start_bad
        pi_bad = self.p_gb / total
        decay = (1.0 - total) ** slots
        # rounding can leave the closed form a hair outside [0, 1]
        return min(1.0, max(0.0, pi_bad + (start_bad - pi_bad) * decay))

    def _advance_to(self, now_us: int) -> None:
        """Advance the state over the slots elapsed since the last update.

        Uses the exact n-step transition probability of the two-state chain
        (:meth:`n_step_bad_probability`), so the advance costs one uniform
        draw regardless of how long the link sat idle.
        """
        if self._last_update_us is None:
            self._last_update_us = now_us
            return
        slots = (now_us - self._last_update_us) // self.slot_us
        if slots <= 0:
            return
        self._last_update_us += slots * self.slot_us
        if self.p_gb + self.p_bg == 0.0:
            return
        key = (slots, self.state_good)
        p_bad = self._n_step_memo.get(key)
        if p_bad is None:
            p_bad = self._n_step_memo[key] = \
                self.n_step_bad_probability(slots)
        self.state_good = self.rng.random() >= p_bad

    # -- error model ---------------------------------------------------------
    def _state_probabilities(self, packet: BasebandPacket, good: bool
                             ) -> PacketErrorProbabilities:
        key = (good, packet.ptype.name, packet.payload)
        probabilities = self._memo.get(key)
        if probabilities is None:
            if self.per_good is not None:
                per = self.per_good if good else self.per_bad
                probabilities = PacketErrorProbabilities(
                    access=0.0, header=0.0, payload=per)
            else:
                ber = self.ber_good if good else self.ber_bad
                probabilities = packet_error_probabilities(packet, ber)
            self._memo[key] = probabilities
        return probabilities

    def error_probabilities(self, packet: BasebandPacket
                            ) -> PacketErrorProbabilities:
        return self._state_probabilities(packet, good=self.state_good)

    def transmit(self, packet: BasebandPacket,
                 now_us: Optional[int] = None) -> TransmissionResult:
        if now_us is not None:
            self._advance_to(now_us)
            return self._sample(self.error_probabilities(packet))
        result = self._sample(self.error_probabilities(packet))
        self._advance_state()
        return result


# ------------------------------------------------------------- channel map

#: Builds the channel of one link from its identity and dedicated RNG.
ChannelFactory = Callable[[LinkId, random.Random], Channel]


class ChannelMap:
    """Per-link channel assignment for a piconet.

    Every ``(slave, direction)`` link gets its own channel instance, created
    lazily by ``factory(link, rng)`` with an RNG drawn from a
    :class:`~repro.sim.rng.RandomStreams` substream named after the link —
    so each link's error sequence is independent and reproducible no matter
    in which order links first carry traffic, and identical across the
    sweep orchestrator's serial / process / batch backends.
    """

    def __init__(self, factory: ChannelFactory,
                 streams: Union["RandomStreams", int, None] = None,
                 stream_prefix: str = "channel"):
        from repro.sim.rng import RandomStreams
        if streams is None:
            streams = RandomStreams(0)
        elif isinstance(streams, int):
            streams = RandomStreams(streams)
        self.factory = factory
        self.streams = streams
        self.stream_prefix = stream_prefix
        self._channels: Dict[LinkId, Channel] = {}

    # -- construction shortcuts ---------------------------------------------
    @classmethod
    def ideal(cls) -> "ChannelMap":
        """Every link ideal (the paper's radio environment)."""
        return cls.shared(IdealChannel())

    @classmethod
    def shared(cls, channel: Channel) -> "ChannelMap":
        """Every link served by one shared channel instance.

        This is the legacy single-``Channel`` behaviour (one piconet-wide
        error process); :class:`~repro.piconet.piconet.Piconet` wraps a bare
        ``Channel`` argument this way for backward compatibility.
        """
        return cls(lambda link, rng: channel)

    @classmethod
    def uniform(cls, make: Callable[[random.Random], Channel],
                streams: Union["RandomStreams", int, None] = None
                ) -> "ChannelMap":
        """The same channel model on every link, independently seeded.

        ``make(rng)`` builds one channel instance; each link receives its
        own instance with its own substream.
        """
        return cls(lambda link, rng: make(rng), streams=streams)

    @classmethod
    def per_slave(cls, makers: Mapping[int, Callable[[random.Random], Channel]],
                  default: Optional[Callable[[random.Random], Channel]] = None,
                  streams: Union["RandomStreams", int, None] = None
                  ) -> "ChannelMap":
        """Heterogeneous link quality: a channel maker per slave address.

        Slaves absent from ``makers`` use ``default`` (ideal when ``None``).
        Both directions of a slave's link share the maker but get their own
        instances and streams.
        """

        def factory(link: LinkId, rng: random.Random) -> Channel:
            slave, _direction = link
            make = makers.get(slave, default)
            return make(rng) if make is not None else IdealChannel()

        return cls(factory, streams=streams)

    # -- lookup / use --------------------------------------------------------
    def channel_for(self, slave: int, direction: str) -> Channel:
        """The channel of one directed link (created on first use)."""
        link = (slave, direction)
        channel = self._channels.get(link)
        if channel is None:
            rng = self.streams.stream(
                f"{self.stream_prefix}:S{slave}:{direction}")
            channel = self.factory(link, rng)
            self._channels[link] = channel
        return channel

    def transmit(self, slave: int, direction: str, packet: BasebandPacket,
                 now_us: Optional[int] = None) -> TransmissionResult:
        """Transmit ``packet`` over the ``(slave, direction)`` link."""
        return self.channel_for(slave, direction).transmit(packet, now_us)

    def links(self) -> List[LinkId]:
        """Links that have carried traffic so far, in sorted order."""
        return sorted(self._channels)

    def total(self, attribute: str) -> int:
        """Sum an integer counter over every link channel created so far.

        Channels without the attribute count as zero, so e.g.
        ``total("interference_failures")`` works on mixed maps where only
        some links are interference-aware.
        """
        return sum(getattr(channel, attribute, 0)
                   for channel in self._channels.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChannelMap({len(self._channels)} links)"


def coerce_channel_map(channel: Union[Channel, ChannelMap, None]
                       ) -> ChannelMap:
    """Normalise a channel argument into a :class:`ChannelMap`.

    ``None`` becomes an all-ideal map; a bare :class:`Channel` is shared
    across every link (the legacy piconet-wide behaviour); a
    :class:`ChannelMap` passes through.
    """
    if channel is None:
        return ChannelMap.ideal()
    if isinstance(channel, ChannelMap):
        return channel
    if isinstance(channel, Channel):
        return ChannelMap.shared(channel)
    raise TypeError(
        f"channel must be a Channel, a ChannelMap or None, got {channel!r}")
