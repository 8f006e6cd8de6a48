"""Radio channel models and the per-link channel subsystem.

The paper's evaluation assumes an ideal radio environment (no transmission
errors, no retransmissions).  The lossy models implement the paper's stated
future work — a non-ideal environment in which the slots saved by the
variable-interval poller can be spent on retransmissions.  Every lossy
model is described by a bit error rate.

Three layers:

* **Error decomposition** (:mod:`repro.baseband.fec`) — a bit error rate is
  turned into per-section probabilities: access-code miss, header (1/3 FEC)
  failure, and payload (CRC / 2/3 FEC / uncoded) corruption.
* **Channel models** — :class:`IdealChannel`, :class:`LossyChannel`
  (independent errors at one BER) and :class:`GilbertElliottChannel`
  (two-state burst errors whose state evolves per elapsed *slot*, not per
  transmission).  Each answers :meth:`Channel.transmit` — always given
  the simulation time ``now_us`` — with one of the three ``TX_*``
  outcomes, separating "never received" (access/header) from "received
  but the payload CRC failed": the first is a silent loss, the second a
  NAK.
* **The channel map** (:class:`ChannelMap`) — assigns an independent,
  deterministically seeded channel instance to every ``(slave, direction)``
  link of a piconet, using :class:`repro.sim.rng.RandomStreams` substreams
  so per-link error sequences are reproducible regardless of the order in
  which links first transmit.  A piconet takes a map, or ``None`` for the
  ideal radio.

ARQ itself (re-queueing a failed segment) is handled by the piconet layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.baseband.constants import SLOT_US
from repro.baseband.fec import (
    PacketErrorProbabilities,
    packet_error_probabilities,
)
from repro.baseband.packets import BasebandPacket

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

    def transmit(self, packet: BasebandPacket,
                 now_us: int) -> TransmissionResult:
        """Put ``packet`` on the air at simulation time ``now_us``.

        Stateful channels advance their link state by the time elapsed
        since the previous transmission.  The result is one of the three
        ``TX_*`` singletons.
        """
        raise NotImplementedError


class IdealChannel(Channel):
    """The paper's assumption: every transmission succeeds."""

    def transmit(self, packet: BasebandPacket,
                 now_us: int) -> TransmissionResult:
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


def _check_probability(name: str, value: float) -> None:
    if not 0 <= value <= 1:
        raise ValueError(f"{name} must be within [0, 1]")


class LossyChannel(_StochasticChannel):
    """Independent (Bernoulli) errors per packet at one bit error rate.

    The per-section probabilities come from the real code model in
    :mod:`repro.baseband.fec` — the 1/3 repetition header, the (15, 10)
    shortened-Hamming payload of DM/HV2 types, uncoded DH/HV3 payloads —
    so FEC-protected types genuinely trade payload capacity for
    robustness.
    """

    def __init__(self, bit_error_rate: float,
                 rng: Optional[random.Random] = None):
        _check_probability("bit_error_rate", bit_error_rate)
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
        """Per-section corruption probabilities of ``packet``."""
        key = (packet.ptype.name, packet.payload)
        probabilities = self._memo.get(key)
        if probabilities is None:
            probabilities = packet_error_probabilities(
                packet, self.bit_error_rate)
            self._memo[key] = probabilities
        return probabilities

    def transmit(self, packet: BasebandPacket,
                 now_us: int) -> TransmissionResult:
        return self._sample(self.error_probabilities(packet))


class GilbertElliottChannel(_StochasticChannel):
    """Two-state burst-error channel (good/bad states).

    ``p_gb`` and ``p_bg`` are the per-*slot* transition probabilities from
    good to bad and back.  Every :meth:`transmit` first advances the state
    over the slots elapsed since the previous transmission (using the
    exact two-state closed form, so a long idle gap costs one draw, not
    one per slot) — fades evolve with time on the link, not with the
    polling rate.  Each state has its own bit error rate (``ber_good``,
    ``ber_bad``), combined with the real FEC model.
    """

    def __init__(self, p_gb: float = 0.01, p_bg: float = 0.1,
                 ber_good: float = 0.0, ber_bad: float = 0.01,
                 rng: Optional[random.Random] = None):
        for name, value in (("p_gb", p_gb), ("p_bg", p_bg),
                            ("ber_good", ber_good), ("ber_bad", ber_bad)):
            _check_probability(name, value)
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.ber_good = ber_good
        self.ber_bad = ber_bad
        self.rng = rng if rng is not None else random.Random(0)
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
        slots = (now_us - self._last_update_us) // SLOT_US
        if slots <= 0:
            return
        self._last_update_us += slots * SLOT_US
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
            probabilities = packet_error_probabilities(
                packet, self.ber_good if good else self.ber_bad)
            self._memo[key] = probabilities
        return probabilities

    def transmit(self, packet: BasebandPacket,
                 now_us: int) -> TransmissionResult:
        self._advance_to(now_us)
        return self._sample(self._state_probabilities(packet,
                                                      self.state_good))


# ------------------------------------------------------------- channel map

#: The one ideal channel every link of an ideal map shares (it is stateless).
_IDEAL = IdealChannel()

#: Builds the channel of one link from its identity and dedicated RNG.
ChannelFactory = Callable[[LinkId, random.Random], Channel]


class ChannelMap:
    """Per-link channel assignment for a piconet.

    Every ``(slave, direction)`` link gets its own channel instance, created
    lazily by ``factory(link, rng)`` with an RNG drawn from a
    :class:`~repro.sim.rng.RandomStreams` substream named after the link —
    so each link's error sequence is independent and reproducible no matter
    in which order links first carry traffic, and identical across the
    sweep orchestrator's serial and batch backends.
    """

    def __init__(self, factory: ChannelFactory,
                 streams: Optional["RandomStreams"] = None,
                 stream_prefix: str = "channel"):
        from repro.sim.rng import RandomStreams
        if streams is None:
            streams = RandomStreams(0)
        self.factory = factory
        self.streams = streams
        self.stream_prefix = stream_prefix
        self._channels: Dict[LinkId, Channel] = {}

    @classmethod
    def ideal(cls) -> "ChannelMap":
        """Every link ideal (the paper's radio environment)."""
        return cls(lambda link, rng: _IDEAL)

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
                 now_us: int) -> TransmissionResult:
        """Transmit ``packet`` over the ``(slave, direction)`` link."""
        channel = self._channels.get((slave, direction))
        if channel is None:
            channel = self.channel_for(slave, direction)
        return channel.transmit(packet, now_us)

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

