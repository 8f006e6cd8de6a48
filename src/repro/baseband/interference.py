"""Inter-piconet interference: hop sequences, interferers, the shared field.

Bluetooth piconets are not alone on the 2.4 GHz band: every co-located
piconet hops over the same 79 channels under its own master's pseudo-random
sequence, and whenever two unsynchronised piconets land on the same channel
in the same slot their packets collide.  The paper's evaluation assumes an
isolated piconet; this module supplies the coupling layer for the
multi-piconet scenarios (ROADMAP follow-on):

* :class:`HopSequence` — one piconet's 79-channel pseudo-random hopping,
  deterministically seeded, random-access by slot index.
* :class:`InterfererProcess` — a co-located piconet as seen by a victim:
  a hop sequence plus a duty cycle (the fraction of slots it actually
  transmits in).
* :class:`CoupledTransmitter` — a *fully simulated* co-located piconet:
  instead of a stochastic duty cycle, its activity is exactly the
  transmissions the piconet reports
  (:meth:`InterferenceField.report_transmission`), so N victims drive
  each other's collision BER from what actually went on the air.
* :class:`InterferenceField` — the shared medium.  Piconets register by
  name; for any victim transmission the field counts the co-channel
  collisions with every *other* registered member and converts them into a
  time-varying BER boost.  Collisions with duty-cycle members (drawn up
  front) are counted in bulk per block, one byte per slot per member; only
  reported air goes into the *occupancy index* (coupled transmitters per
  slot and channel).  A packet's lookup is one pass over its slots, each
  slot four byte reads (hop, index cell, own presence, bulk count) and
  no call beyond one into the shared tally loop, and yields the exact
  integers (so the exact floats) of the reference pairwise scan,
  :meth:`InterferenceField.collisions_pairwise`.
* :class:`InterferenceAwareChannel` — a :class:`~repro.baseband.channel.
  Channel` wrapper that composes a base (per-link) channel with the
  field's collision BER over the slots a packet occupies at ``now_us``;
  :func:`interference_channel_map` builds the
  :class:`~repro.baseband.channel.ChannelMap` of one victim piconet from
  them.

The real frequency-hopping kernel (clock-driven permutation tables) is
replaced by a seeded pseudo-random sequence with the statistics that matter
at this abstraction level: per-slot channels uniform over the 79 channels
and independent between piconets, which yields the classic 1/79 co-channel
collision probability between two unsynchronised piconets.

Determinism: all randomness is drawn from
:class:`~repro.sim.rng.RandomStreams` substreams via
:meth:`~repro.sim.rng.RandomStreams.child`, and per-slot draws are cached
by slot index, so hop channels and activity are reproducible regardless of
the order in which they are first queried — and identical across the sweep
orchestrator's serial and batch backends.

Hops and activity are drawn in bulk (:func:`bulk_randrange`,
:func:`bulk_active`) from ``getrandbits`` words, in exactly the
Mersenne-Twister order of per-call ``randrange(n)`` / ``random() < duty``
loops: the same values and the same final generator state.  This is
done with the standard library alone; numpy was measured for it and
rejected, because importing it adds 12.6 MB of resident memory (numpy
2.4, CPython 3.11): a third of the coupled 64-piconet room's peak.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import combinations, compress
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.baseband.channel import (
    Channel,
    ChannelFactory,
    ChannelMap,
    IdealChannel,
    TransmissionResult,
    TX_NOT_RECEIVED,
    TX_OK,
    _StochasticChannel,
)
from repro.baseband.constants import SLOT_US
from repro.baseband.fec import (
    PacketErrorProbabilities,
    packet_error_probabilities,
)
from repro.baseband.packets import BasebandPacket
from repro.sim.rng import RandomStreams

#: Channels of the 2.4 GHz Bluetooth hop set.
HOP_CHANNELS = 79

#: Default bit error rate a single co-channel collision inflicts on the
#: victim's air bits during the collided slot.  0.05 over a DH payload of
#: hundreds of bits makes a collided data packet almost certainly fail —
#: matching the reality that a same-channel overlap destroys the overlap —
#: while short FEC-protected sections retain a fighting chance.
DEFAULT_COLLISION_BER = 0.05

#: Hard cap on any effective interference BER (a bit flipped with
#: probability > 0.5 would carry information again).
MAX_COLLISION_BER = 0.5

#: The field's collision counts grow by whole blocks, at least doubling (by
#: at most MAX_GROWTH_SLOTS) so long runs rarely pay the per-block Python
#: overhead; both values only affect performance, never draws.
OCCUPANCY_BLOCK_SLOTS = 256
MAX_GROWTH_SLOTS = 4096

#: Marks the zero bytes (same channel) of two XORed hop blocks with 1.
_SAME_CHANNEL = bytes((1,)) + bytes(255)

#: The occupancy row of a field without coupled members: read with a row
#: width of 0, every slot's hop channel lands on a silent cell.
_NO_AIR = bytes(HOP_CHANNELS)


@lru_cache(maxsize=None)
def _randrange_tables(n: int) -> Tuple[bytes, bytes]:
    # getrandbits(k) is the top k bits of one 32-bit word, i.e. the word's
    # top byte shifted right by 8 - k; randrange rejects results >= n
    shift = 8 - n.bit_length()
    return (bytes(byte >> shift for byte in range(256)),
            bytes(byte for byte in range(256) if byte >> shift >= n))


def bulk_randrange(rng: random.Random, n: int, count: int) -> bytes:
    """``count`` values of ``rng.randrange(n)`` (``1 <= n <= 255``).

    Same values, same final generator state as the per-call loop: every
    ``randrange`` attempt consumes one 32-bit word, and each round draws
    only as many words as values are still missing, so no word beyond
    the per-call loop's is ever consumed.
    """
    table, rejected = _randrange_tables(n)
    drawn = b""
    while count > 0:
        words = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
        accepted = words[3::4].translate(table, rejected)
        drawn += accepted
        count -= len(accepted)
    return drawn


@lru_cache(maxsize=None)
def _active_table(limit: int) -> bytes:
    # top byte below the threshold's: active; above: idle; equal: a tie
    return bytes(1 if byte < limit else 2 if byte == limit else 0
                 for byte in range(256))


def bulk_active(rng: random.Random, duty: float, count: int) -> bytearray:
    """``count`` flags of ``rng.random() < duty`` as bytes 0/1.

    ``random()`` is ``m / 2**53`` with ``m`` built from two 32-bit words,
    and the top byte of ``m`` is the top byte of the first word.  Against
    the threshold ``ceil(duty * 2**53)`` that byte settles every draw but
    a 1-in-256 tie, which is recomputed with ``random()``'s own arithmetic.
    """
    if count <= 0:
        return bytearray()
    words = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    flags = bytearray(words[3::8].translate(
        _active_table(math.ceil(duty * 2.0 ** 53) >> 45)))
    tie = flags.find(2)
    while tie >= 0:
        at = 8 * tie
        high = int.from_bytes(words[at:at + 4], "little") >> 5
        low = int.from_bytes(words[at + 4:at + 8], "little") >> 6
        flags[tie] = (high * 67108864.0 + low) \
            * (1.0 / 9007199254740992.0) < duty
        tie = flags.find(2, tie + 1)
    return flags


class HopSequence:
    """One piconet's pseudo-random 79-channel hop sequence.

    ``channel_at(slot)`` is random-access: the underlying byte buffer is
    extended up to the requested slot, so the channel of any slot is a
    pure function of the seed and the slot index, independent of query
    order.  :meth:`extend_to` draws whole blocks in bulk (the field
    extends all members this way), preserving the exact draw order
    of the historical one-at-a-time path.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._sequence = bytearray()

    def extend_to(self, length: int) -> None:
        """Draw hop channels until ``length`` slots are materialised.

        Same values and generator state as repeated ``channel_at``.
        """
        sequence = self._sequence
        if len(sequence) < length:
            sequence += bulk_randrange(self._rng, HOP_CHANNELS,
                                       length - len(sequence))

    def channels_until(self, length: int) -> bytearray:
        """The first ``length`` hop channels (a shared buffer; do not
        mutate)."""
        self.extend_to(length)
        return self._sequence

    def channel_at(self, slot_index: int) -> int:
        """The hop channel this piconet occupies in ``slot_index``."""
        if slot_index < 0:
            raise ValueError(f"slot_index must be >= 0, got {slot_index}")
        sequence = self._sequence
        if slot_index >= len(sequence):
            self.extend_to(slot_index + 1)
        return sequence[slot_index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HopSequence(drawn={len(self._sequence)})"


class InterfererProcess:
    """A co-located piconet as seen by a victim: hops plus a duty cycle.

    ``duty_cycle`` is the probability that the piconet actually transmits
    in a given slot (its offered load); activity is drawn per slot from a
    dedicated stream and cached, so it too is independent of query order.
    A duty cycle of 1.0 models a saturated piconet, 0.0 a silent one.

    Timeline ``interferer-on`` / ``interferer-off`` events switch the
    member via :meth:`set_enabled`: the raw draws are never discarded —
    switching only *masks* them — so the activity pattern where the member
    is enabled is exactly the always-on pattern, and a member with no
    switches is byte-identical to the historical behaviour.
    """

    #: duty-cycle members model activity stochastically; see
    #: :class:`CoupledTransmitter` for the reported-transmission variant
    coupled = False

    def __init__(self, name: str, hops: HopSequence,
                 activity_rng: random.Random, duty_cycle: float = 1.0):
        if not 0.0 <= duty_cycle <= 1.0:
            raise ValueError(
                f"duty_cycle must be within [0, 1], got {duty_cycle}")
        self.name = name
        self.hops = hops
        self.duty_cycle = duty_cycle
        self._rng = activity_rng
        self._activity = bytearray()
        # (slot, enabled) breakpoints in non-decreasing slot order; the
        # member is enabled before the first breakpoint
        self._switches: List[Tuple[int, bool]] = []
        # masked view of _activity, maintained only once a switch exists
        self._masked = bytearray()

    def extend_to(self, length: int) -> None:
        """Draw activity until ``length`` slots are materialised.

        Always draws — so the activity pattern at a given duty cycle stays
        a deterministic function of (seed, slot) alone, with the values
        and generator state of the historical per-call path.
        """
        activity = self._activity
        if len(activity) < length:
            activity += bulk_active(self._rng, self.duty_cycle,
                                    length - len(activity))

    def set_enabled(self, slot: int, enabled: bool) -> None:
        """Switch the interferer on or off from ``slot`` forward.

        Raw activity draws are untouched (the pattern stays a function of
        (seed, slot) alone); only the *effective* activity is masked, so an
        off/on pair restores exactly the draws an always-on member would
        have radiated.  Switches must arrive in non-decreasing slot order
        (the timeline fires them chronologically); a switch landing on the
        slot of the previous one replaces it.
        """
        if slot < 0:
            raise ValueError(f"slot must be >= 0, got {slot}")
        switches = self._switches
        if switches and slot < switches[-1][0]:
            raise ValueError(
                f"switches must arrive in non-decreasing slot order; got "
                f"slot {slot} after {switches[-1][0]}")
        if switches and slot == switches[-1][0]:
            switches[-1] = (slot, enabled)
        else:
            switches.append((slot, enabled))
        if len(self._masked) > slot:
            del self._masked[slot:]

    def enabled_at(self, slot_index: int) -> bool:
        """Whether the member is switched on in ``slot_index``."""
        enabled = True
        for at, state in self._switches:
            if at <= slot_index:
                enabled = state
            else:
                break
        return enabled

    def _extend_masked(self, length: int) -> None:
        # one slice per switch interval: the raw draws where the member is
        # enabled, silence where it is not
        masked = self._masked
        raw = self._activity
        start = len(masked)
        enabled = True
        for at, state in self._switches:
            if at > start:
                end = min(at, length)
                masked += raw[start:end] if enabled else bytes(end - start)
                start = end
            enabled = state
        masked += raw[start:length] if enabled else bytes(length - start)

    def activity_until(self, length: int) -> bytearray:
        """The first ``length`` *effective* activity flags, 0 or 1 (shared;
        do not mutate)."""
        self.extend_to(length)
        if not self._switches:
            return self._activity
        if len(self._masked) < length:
            self._extend_masked(length)
        return self._masked

    def active_at(self, slot_index: int) -> bool:
        """Whether this piconet transmits in ``slot_index``."""
        if slot_index < 0:
            raise ValueError(f"slot_index must be >= 0, got {slot_index}")
        activity = self._activity
        if slot_index >= len(activity):
            self.extend_to(slot_index + 1)
        if self._switches and not self.enabled_at(slot_index):
            return False
        return bool(activity[slot_index])

    def transmits_on(self, slot_index: int, channel: int) -> bool:
        """Whether this piconet radiates on ``channel`` in ``slot_index``."""
        return self.active_at(slot_index) \
            and self.hops.channel_at(slot_index) == channel


class CoupledTransmitter:
    """A fully simulated piconet's presence on the air.

    Unlike :class:`InterfererProcess`, activity is not drawn from a duty
    cycle: the piconet reports every transaction it actually puts on the
    air (:meth:`InterferenceField.report_transmission`), and
    :meth:`active_at` reflects exactly those reported slots — un-reported
    slots are silent.  ``duty_cycle`` is only the *assumed* saturation the
    analytic :meth:`InterferenceField.expected_collision_probability`
    uses; it never influences the simulated collisions.
    """

    coupled = True

    def __init__(self, name: str, hops: HopSequence,
                 duty_cycle: float = 1.0):
        if not 0.0 <= duty_cycle <= 1.0:
            raise ValueError(
                f"duty_cycle must be within [0, 1], got {duty_cycle}")
        self.name = name
        self.hops = hops
        self.duty_cycle = duty_cycle
        self._activity = bytearray()

    def extend_to(self, length: int) -> None:
        """Pad the activity record with silence up to ``length`` slots."""
        activity = self._activity
        if len(activity) < length:
            activity += bytes(length - len(activity))

    def activity_until(self, length: int) -> bytearray:
        """The first ``length`` activity flags, 0 or 1 (shared; do not
        mutate)."""
        self.extend_to(length)
        return self._activity

    def active_at(self, slot_index: int) -> bool:
        """Whether a transmission was reported covering ``slot_index``."""
        if slot_index < 0:
            raise ValueError(f"slot_index must be >= 0, got {slot_index}")
        activity = self._activity
        return slot_index < len(activity) and bool(activity[slot_index])

    def transmits_on(self, slot_index: int, channel: int) -> bool:
        """Whether this piconet radiates on ``channel`` in ``slot_index``."""
        return self.active_at(slot_index) \
            and self.hops.channel_at(slot_index) == channel


class InterferenceField:
    """The shared 2.4 GHz medium coupling several piconets.

    Piconets register by name (:meth:`register`); each gets its own hop
    sequence and activity stream from a :meth:`~repro.sim.rng.
    RandomStreams.child` substream named after it.  For a victim
    transmission the field counts how many *other* members are active on
    the victim's hop channel (:meth:`collisions`) and converts the count
    into a BER boost (:meth:`mean_collision_ber`, ``ber_per_collision`` per
    collider, capped at ``0.5``).

    Every member hops over the :data:`HOP_CHANNELS` channels.  The
    compiler hands in ``RandomStreams(seed).child(stream)`` so the field's
    draws stay independent of the victim piconet's own channel and
    traffic streams.
    """

    def __init__(self, streams: RandomStreams,
                 ber_per_collision: float = DEFAULT_COLLISION_BER):
        if not 0.0 <= ber_per_collision <= MAX_COLLISION_BER:
            raise ValueError(
                f"ber_per_collision must be within [0, {MAX_COLLISION_BER}],"
                f" got {ber_per_collision}")
        self.streams = streams
        self.ber_per_collision = ber_per_collision
        self._members: Dict[str, object] = {}
        # -- the collision counts (built up to _slots_built) -----------------
        # _duty_counts[name][slot]: other duty-cycle members on name's hop
        # channel (no entries without duty-cycle members).  The occupancy
        # index holds reported air only: _occ[slot * channels + channel] is
        # the coupled members radiating there (empty without coupled
        # members); late reports increment already-built cells.
        # _terms[name] holds the buffers _tally reads for victim ``name``.
        # _ber_table[count] is the per-slot BER of ``count`` colliders.
        self._reset_index()

    # -- membership ----------------------------------------------------------
    def _hops_for(self, name: str) -> HopSequence:
        family = self.streams.child(f"piconet:{name}")
        return HopSequence(family.stream("hops"))

    def register(self, name: str,
                 duty_cycle: float = 1.0) -> InterfererProcess:
        """Add a piconet to the field (victim and interferer alike)."""
        if name in self._members:
            raise ValueError(f"piconet {name!r} already registered")
        # a bulk count byte sums the other duty-cycle members: <= 255
        if sum(not m.coupled for m in self._members.values()) >= 256:
            raise ValueError("a field holds at most 256 duty-cycle members")
        family = self.streams.child(f"piconet:{name}")
        member = InterfererProcess(
            name=name,
            hops=HopSequence(family.stream("hops")),
            activity_rng=family.stream("activity"),
            duty_cycle=duty_cycle)
        self._members[name] = member
        self._reset_index()
        return member

    def register_coupled(self, name: str,
                         duty_cycle: float = 1.0) -> CoupledTransmitter:
        """Add a fully simulated piconet whose activity is *reported*.

        The member shares the hop-stream derivation of :meth:`register`
        (same ``piconet:<name>`` substream family), but its activity comes
        from :meth:`report_transmission` instead of duty-cycle draws;
        ``duty_cycle`` only parameterises the analytic
        :meth:`expected_collision_probability`.
        """
        if name in self._members:
            raise ValueError(f"piconet {name!r} already registered")
        member = CoupledTransmitter(name=name, hops=self._hops_for(name),
                                    duty_cycle=duty_cycle)
        self._members[name] = member
        self._reset_index()
        return member

    def member(self, name: str):
        try:
            return self._members[name]
        except KeyError:
            known = ", ".join(sorted(self._members)) or "<none>"
            raise KeyError(
                f"unknown piconet {name!r}; registered: {known}") from None

    def members(self) -> List[str]:
        """Registered piconet names, in registration order."""
        return list(self._members)

    # -- the collision counts ------------------------------------------------
    def _reset_index(self) -> None:
        """Invalidate the counts and the index (a member joined).

        Rebuilding re-reads every member's *cached* hop/activity values —
        block extension never changes which RNG values a slot gets, so the
        rebuilt counts are byte-identical to a fresh build.
        """
        members = self._members
        self._occ = bytearray()
        self._coupled = any(member.coupled for member in members.values())
        bulk = not all(member.coupled for member in members.values())
        self._duty_counts: Dict[str, bytearray] = {
            name: bytearray() for name in members if bulk}
        # zeros up to the built slots: the absent terms of the count rule
        self._silence = bytearray()
        self._slots_built = 0
        air, width = (self._occ, HOP_CHANNELS) if self._coupled \
            else (_NO_AIR, 0)
        self._terms = {
            name: (air, width, member.hops._sequence,
                   member._activity if member.coupled else self._silence,
                   self._duty_counts.get(name, self._silence))
            for name, member in members.items()}
        self._ber_table = tuple(
            min(MAX_COLLISION_BER, count * self.ber_per_collision)
            for count in range(len(self._members)))

    def _ensure_slots(self, upto: int) -> None:
        """Materialise the collision counts of every slot below ``upto``.

        Extends in blocks of :data:`OCCUPANCY_BLOCK_SLOTS`: every member's
        hop and activity sequences are block-extended (same draws, same
        order as per-slot access).  Coupled members are folded into the
        index slot by slot; the duty-cycle counts take one big-integer
        pass per pair of members (README ADR-006): the same-channel mask
        of the XORed hop blocks, ANDed with a duty-cycle member's 0/1
        activity, adds to the other member's total.
        """
        built = self._slots_built
        if upto <= built:
            return
        upto = max(upto, built + min(built, MAX_GROWTH_SLOTS))
        target = -(-upto // OCCUPANCY_BLOCK_SLOTS) * OCCUPANCY_BLOCK_SLOTS
        size = target - built
        channels = HOP_CHANNELS
        occ = self._occ
        silence = self._silence
        if len(silence) < target:  # a switch may have cut the counts back
            silence += bytes(target - len(silence))
        if self._coupled:
            occ += bytes(size * channels)
        duty: Dict[str, int] = {}
        for name, member in self._members.items():
            hops = member.hops.channels_until(target)
            activity = member.activity_until(target)
            if member.coupled:
                for slot in compress(range(built, target),
                                     activity[built:target]):
                    occ[slot * channels + hops[slot]] += 1
            else:
                duty[name] = int.from_bytes(activity[built:target], "little")
        if duty:
            hop_blocks = [(name, int.from_bytes(
                member.hops.channels_until(target)[built:target], "little"))
                for name, member in self._members.items()]
            totals = dict.fromkeys(self._members, 0)
            for (first, first_hops), (second, second_hops) in combinations(
                    hop_blocks, 2):
                if first in duty or second in duty:
                    same = int.from_bytes((first_hops ^ second_hops).to_bytes(
                        size, "little").translate(_SAME_CHANNEL), "little")
                    if second in duty:
                        totals[first] += same & duty[second]
                    if first in duty:
                        totals[second] += same & duty[first]
            for name, total in totals.items():
                self._duty_counts[name] += total.to_bytes(size, "little")
        self._slots_built = target

    def _tally(self, victim: str, start: int, end: int,
               weights: Sequence) -> Union[int, float]:
        """Sum ``weights[count]`` over the slots of ``[start, end)`` with a
        non-zero collider ``count`` against ``victim``, in slot order.

        The one statement of the count rule: the index cell of the
        victim's hop channel, minus its own reported presence, plus its
        bulk count against the duty-cycle members.  Each victim's
        :attr:`_terms` stand a zero buffer (or the silent
        :data:`_NO_AIR` row) in for the terms its field lacks.
        """
        if end > self._slots_built:
            self._ensure_slots(end)
        terms = self._terms.get(victim)
        if terms is None:
            self.member(victim)  # raises the one-line "unknown" KeyError
        air, channels, hops, own, duty = terms
        total = 0
        if air is _NO_AIR and not max(duty[start:end], default=0):
            # a duty-only field counts only the bulk counts (the victim
            # reports no presence): one C-level pass settles a quiet span
            return total
        for slot in range(start, end):
            count = air[slot * channels + hops[slot]] - own[slot] + duty[slot]
            if count:
                total += weights[count]
        return total

    # -- coupled transmissions -----------------------------------------------
    def report_transmission(self, name: str, start_slot: int,
                            slots: int) -> None:
        """Record that ``name`` radiates over ``[start_slot, start_slot +
        slots)``.

        Only :meth:`register_coupled` members report; already-reported
        slots are idempotent (a slot radiates once).  Slots the index
        already covers are incremented in place, so every later query —
        including one for a slot before the report's — sees the report.
        """
        if start_slot < 0:
            raise ValueError(f"start_slot must be >= 0, got {start_slot}")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        member = self._members.get(name) or self.member(name)
        if not member.coupled:
            raise TypeError(
                f"piconet {name!r} is a duty-cycle interferer; only "
                f"coupled members (register_coupled) report transmissions")
        end = start_slot + slots
        activity = member._activity
        if len(activity) < end:
            activity += bytes(end - len(activity))
        built = self._slots_built
        occ = self._occ
        channels = HOP_CHANNELS
        hops = member.hops._sequence  # covers the built slots
        for slot in range(start_slot, end):
            if activity[slot]:
                continue
            activity[slot] = 1
            if slot < built:
                occ[slot * channels + hops[slot]] += 1

    # -- timeline switches ---------------------------------------------------
    def set_interferer_enabled(self, name: str, slot: int,
                               enabled: bool) -> None:
        """Switch a duty-cycle interferer on or off from ``slot`` forward.

        The counts at and beyond ``slot`` are dropped — they counted the
        member's previous effective activity — and rebuild lazily from
        the same cached draws, so slots before the switch are untouched
        and the pattern where the member is enabled matches the always-on
        pattern exactly.
        """
        if slot < 0:
            raise ValueError(f"slot must be >= 0, got {slot}")
        member = self.member(name)
        if member.coupled:
            raise TypeError(
                f"piconet {name!r} is a coupled member; its activity is "
                f"reported (report_transmission), not switched")
        member.set_enabled(slot, enabled)
        if self._slots_built > slot:
            del self._occ[slot * HOP_CHANNELS:]
            for counts in self._duty_counts.values():
                del counts[slot:]
            self._slots_built = slot

    def recorder(self, name: str) -> Callable[[int, int], None]:
        """An air-recorder callback feeding this field (see
        :meth:`~repro.piconet.piconet.Piconet.set_air_recorder`):
        ``recorder(start_us, slots)`` reports a transmission of ``name``
        anchored on the slot grid."""
        self.member(name)  # fail fast on unregistered piconets
        report = self.report_transmission

        def record(start_us: int, slots: int) -> None:
            report(name, start_us // SLOT_US, slots)

        return record

    # -- collision accounting ------------------------------------------------
    def collisions(self, victim: str, slot_index: int) -> int:
        """Co-channel colliders against ``victim`` in ``slot_index``."""
        if slot_index < 0:
            raise ValueError(f"slot_index must be >= 0, got {slot_index}")
        return self._tally(victim, slot_index, slot_index + 1,
                           range(len(self._members)))

    def collisions_pairwise(self, victim: str, slot_index: int) -> int:
        """Reference pairwise scan over every member (the pre-index
        implementation) — kept as the ground truth of the collision
        counts' equivalence property and the interference benchmark."""
        channel = self.member(victim).hops.channel_at(slot_index)
        return sum(1 for name, member in self._members.items()
                   if name != victim
                   and member.transmits_on(slot_index, channel))

    def count_collisions(self, victim: str, horizon_slots: int) -> int:
        """Total collider-slots against ``victim`` over ``horizon_slots``."""
        if horizon_slots < 0:
            raise ValueError(
                f"horizon_slots must be >= 0, got {horizon_slots}")
        if horizon_slots == 0:
            return 0
        return self._tally(victim, 0, horizon_slots,
                           range(len(self._members)))

    def mean_collision_ber(self, victim: str, start_slot: int,
                           slots: int) -> float:
        """Mean interference BER over a packet spanning ``slots`` slots.

        The non-zero per-slot terms are summed in slot order with arithmetic
        identical to the historical pairwise path, so the float result is
        bit-identical; a collision-free span is exactly ``0.0``.
        """
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if start_slot < 0:
            raise ValueError(f"start_slot must be >= 0, got {start_slot}")
        return self._tally(victim, start_slot, start_slot + slots,
                           self._ber_table) / slots

    # -- observed statistics (coupled validation) -----------------------------
    def activity_fraction(self, name: str, horizon_slots: int) -> float:
        """Fraction of ``[0, horizon_slots)`` the member radiated in."""
        if horizon_slots < 0:
            raise ValueError(
                f"horizon_slots must be >= 0, got {horizon_slots}")
        member = self.member(name)
        if horizon_slots == 0:
            return 0.0
        activity = member.activity_until(horizon_slots)
        return sum(activity[:horizon_slots]) / horizon_slots

    def observed_collision_fraction(self, victim: str,
                                    horizon_slots: int) -> float:
        """Fraction of ``[0, horizon_slots)`` with >= 1 collider — the
        empirical counterpart of :meth:`expected_collision_probability`."""
        if horizon_slots < 0:
            raise ValueError(
                f"horizon_slots must be >= 0, got {horizon_slots}")
        if horizon_slots == 0:
            return 0.0
        # weight 1 per slot with any collider (index 0 is never read)
        return self._tally(victim, 0, horizon_slots,
                           (1,) * len(self._members)) / horizon_slots

    def expected_collision_probability(self, victim: str) -> float:
        """Analytic per-slot collision probability against ``victim``.

        Each other member independently collides with probability
        ``duty_cycle / HOP_CHANNELS``; the victim is hit when at least one
        does.
        """
        self.member(victim)
        miss = 1.0
        for name, member in self._members.items():
            if name != victim:
                miss *= 1.0 - member.duty_cycle / HOP_CHANNELS
        return 1.0 - miss

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InterferenceField({len(self._members)} piconets)"


class InterferenceAwareChannel(_StochasticChannel):
    """A per-link channel wrapper adding hop-collision interference.

    Composes a ``base`` channel (the link's own fading / thermal-noise
    model — ideal, lossy, or Gilbert-Elliott) with an
    :class:`InterferenceField`: every transmission first traverses the base
    channel (advancing its burst state as usual), then suffers the field's
    collision BER averaged over the slots the packet occupies from
    ``now_us`` on, decomposed into per-section probabilities by the real
    FEC model.  Both outcomes must survive for the packet to get through.

    Interference is sampled from the wrapper's own RNG on every
    transmission — whether or not the base channel already failed — so the
    interference draw sequence is a function of the transmission sequence
    alone and stays reproducible when the base model is swapped.
    """

    def __init__(self, base: Channel, field: InterferenceField,
                 piconet: str, rng: Optional[random.Random] = None):
        field.member(piconet)  # fail fast on unregistered victims
        self.base = base
        self.field = field
        self.piconet = piconet
        self.rng = rng if rng is not None else random.Random(0)
        #: packets this link lost to interference (the base channel had
        #: let them through)
        self.interference_failures = 0
        # the section decomposition is a pure function of (BER, shape); the
        # BER takes few distinct values (multiples of ber_per_collision
        # averaged over 1/3/5 slots), so memoing keeps it off the hot path
        self._memo: Dict[Tuple[float, str, int], PacketErrorProbabilities] \
            = {}

    def _interference_probabilities(self, packet: BasebandPacket,
                                    ber: float) -> PacketErrorProbabilities:
        key = (ber, packet.ptype.name, packet.payload)
        probabilities = self._memo.get(key)
        if probabilities is None:
            probabilities = packet_error_probabilities(packet, ber)
            self._memo[key] = probabilities
        return probabilities

    def transmit(self, packet: BasebandPacket,
                 now_us: int) -> TransmissionResult:
        base_result = self.base.transmit(packet, now_us)
        ptype = packet.ptype
        ber = self.field.mean_collision_ber(
            self.piconet, now_us // SLOT_US, ptype.slots)
        if ber == 0.0:
            return base_result
        interference = self._sample(
            self._memo.get((ber, ptype.name, packet.payload))
            or self._interference_probabilities(packet, ber))
        # results are the three channel singletons: compare by identity
        if interference is TX_OK or base_result is TX_NOT_RECEIVED:
            return base_result
        if base_result is TX_OK:
            self.interference_failures += 1
        return interference


def interference_channel_map(field: InterferenceField, piconet: str,
                             base_factory: Optional[ChannelFactory],
                             streams: RandomStreams) -> ChannelMap:
    """A :class:`~repro.baseband.channel.ChannelMap` under interference.

    Every ``(slave, direction)`` link of ``piconet`` gets its own
    :class:`InterferenceAwareChannel` wrapping a base channel built by
    ``base_factory(link, rng)`` (ideal links when ``None``).  The link's
    :class:`~repro.sim.rng.RandomStreams` substream is split between the
    base model and the interference sampler so swapping the base model
    never perturbs the interference draws.
    """

    def factory(link, rng: random.Random) -> Channel:
        base_rng = random.Random(rng.getrandbits(64))
        base = base_factory(link, base_rng) if base_factory is not None \
            else IdealChannel()
        return InterferenceAwareChannel(base=base, field=field,
                                        piconet=piconet, rng=rng)

    return ChannelMap(factory, streams=streams,
                      stream_prefix=f"interference:{piconet}")
