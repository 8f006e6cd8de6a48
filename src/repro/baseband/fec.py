"""Forward-error-correction and packet error-probability model.

The Bluetooth 1.x baseband protects the three sections of a packet
differently, and the paper's DM-vs-DH trade-off hinges on exactly that
structure:

* **Access code** — a 72-bit channel access code whose 64-bit sync word is
  detected by a sliding correlator.  Detection tolerates a few bit errors;
  beyond the correlator threshold the packet is missed entirely.
* **Header** — 18 information bits protected by a 1/3 repetition code
  (54 air bits).  Each bit is sent three times and majority-decoded, so a
  header bit fails only when two or three of its copies are corrupted.
* **Payload** — DM/HV2 payloads use the (15, 10) shortened Hamming code
  (every 10 information bits become 15 air bits; one error per block is
  corrected), HV1 uses the 1/3 repetition code, DH/HV3/AUX1 payloads are
  uncoded.  ACL payloads additionally carry a payload header and a 16-bit
  CRC; SCO payloads carry neither, so uncorrected payload errors are
  *residual* (the frame is still played out).

This module turns a raw bit error rate into the per-section error
probabilities of a packet, which the channel models combine with their
per-link state.  Replaces the earlier "FEC divides the BER by ten" fudge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict

from repro.baseband.packets import BasebandPacket, PacketType

#: Air bits of the channel access code preceding every packet.
ACCESS_CODE_BITS = 72

#: Bits of the correlated sync word inside the access code.
SYNC_WORD_BITS = 64

#: Bit errors the sync correlator tolerates before the packet is missed.
SYNC_ERROR_THRESHOLD = 7

#: Packet-header information bits (protected by the 1/3 repetition code).
HEADER_BITS = 18

#: CRC bits appended to every CRC-protected payload.
CRC_BITS = 16

#: Information bits per (15, 10) shortened-Hamming block.
HAMMING_INFO_BITS = 10

#: Air bits per full (15, 10) block (5 parity bits per 10 information bits).
HAMMING_BLOCK_BITS = 15


@lru_cache(maxsize=None)
def repetition_bit_error(ber: float) -> float:
    """Probability a majority-decoded 1/3-repetition bit is wrong.

    A bit fails when at least two of its three copies are corrupted:
    ``3 p^2 (1 - p) + p^3 = p^2 (3 - 2p)``.
    """
    return ber * ber * (3.0 - 2.0 * ber)


@lru_cache(maxsize=None)
def hamming_block_error(ber: float, block_bits: int = HAMMING_BLOCK_BITS
                        ) -> float:
    """Probability a single-error-correcting block of ``block_bits`` fails.

    The (15, 10) shortened Hamming code corrects one error per block, so the
    block is lost when two or more of its air bits are corrupted.
    """
    if block_bits < 1:
        raise ValueError(f"block_bits must be positive, got {block_bits}")
    ok = (1.0 - ber) ** block_bits \
        + block_bits * ber * (1.0 - ber) ** (block_bits - 1)
    return 1.0 - min(1.0, ok)


@lru_cache(maxsize=None)
def access_code_error(ber: float,
                      sync_bits: int = SYNC_WORD_BITS,
                      threshold: int = SYNC_ERROR_THRESHOLD) -> float:
    """Probability the sync correlator misses the packet.

    The correlator fires as long as at most ``threshold`` of the
    ``sync_bits`` are corrupted; the miss probability is the binomial tail
    above the threshold.
    """
    if ber <= 0.0:
        return 0.0
    ok = 0.0
    for errors in range(0, threshold + 1):
        ok += (math.comb(sync_bits, errors)
               * ber ** errors * (1.0 - ber) ** (sync_bits - errors))
    return max(0.0, 1.0 - ok)


@lru_cache(maxsize=None)
def header_error(ber: float, header_bits: int = HEADER_BITS) -> float:
    """Probability the 1/3-FEC-protected packet header is undecodable."""
    bit_fail = repetition_bit_error(ber)
    return 1.0 - (1.0 - bit_fail) ** header_bits


def payload_header_bytes(ptype: PacketType) -> int:
    """ACL payload-header bytes (1 for single-slot, 2 for multi-slot)."""
    if ptype.link != "ACL" or ptype.max_payload == 0:
        return 0
    return 1 if ptype.slots == 1 else 2


@lru_cache(maxsize=None)
def payload_error(ptype: PacketType, payload_bytes: int, ber: float) -> float:
    """Probability the payload (including CRC where present) is corrupted.

    For FEC-protected ACL/HV2 payloads this is the probability that any
    (15, 10) block suffers an uncorrectable (2+) error pattern; the final
    partial block keeps its 5 parity bits but is shortened to the remaining
    information bits.  For HV1 it is the probability any repetition-decoded
    bit fails; for unprotected payloads, that any air bit is corrupted.
    """
    info_bits = (payload_bytes + payload_header_bytes(ptype)) * 8
    if ptype.has_crc:
        info_bits += CRC_BITS
    if info_bits == 0:
        return 0.0
    if not ptype.fec:
        return 1.0 - (1.0 - ber) ** info_bits
    if ptype.name == "HV1":
        bit_fail = repetition_bit_error(ber)
        return 1.0 - (1.0 - bit_fail) ** info_bits
    full_blocks, rest = divmod(info_bits, HAMMING_INFO_BITS)
    ok = (1.0 - hamming_block_error(ber)) ** full_blocks
    if rest:
        ok *= 1.0 - hamming_block_error(
            ber, block_bits=rest + HAMMING_BLOCK_BITS - HAMMING_INFO_BITS)
    return 1.0 - ok


@dataclass(frozen=True)
class PacketErrorProbabilities:
    """Per-section corruption probabilities of one packet at one BER.

    ``access``/``header`` failures mean the receiver never sees the packet
    (nothing to acknowledge); a ``payload`` failure is detected by the CRC
    and NAKed (ARQ), or — on CRC-less SCO payloads — becomes a residual
    error in the delivered frame.
    """

    access: float
    header: float
    payload: float

    @cached_property
    def not_received(self) -> float:
        """Probability the packet is missed outright (access or header)."""
        return 1.0 - (1.0 - self.access) * (1.0 - self.header)

    @property
    def any(self) -> float:
        """Probability the packet fails in any section."""
        return 1.0 - ((1.0 - self.access) * (1.0 - self.header)
                      * (1.0 - self.payload))


@lru_cache(maxsize=None)
def _packet_error_probabilities(ptype: PacketType, payload_bytes: int,
                                ber: float) -> PacketErrorProbabilities:
    """The process-wide packet error table, keyed ``(type, payload, ber)``.

    Every section function is a pure function of the bit error rate and the
    packet shape, so the full decomposition is memoizable once per shape —
    shared across all per-link channel instances (which each keep a small
    per-instance dict in front of this table for the cheapest possible hit
    path) and across sweep points that revisit the same BER.
    """
    return PacketErrorProbabilities(
        access=access_code_error(ber),
        header=header_error(ber),
        payload=payload_error(ptype, payload_bytes, ber),
    )


def packet_error_probabilities(packet: BasebandPacket,
                               ber: float) -> PacketErrorProbabilities:
    """Decompose a packet's error probability at bit error rate ``ber``."""
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"bit error rate must be within [0, 1], got {ber}")
    return _packet_error_probabilities(packet.ptype, packet.payload, ber)


#: the memoized pure functions of this module, by public stat name
_CACHED_FUNCTIONS = {
    "repetition_bit_error": repetition_bit_error,
    "hamming_block_error": hamming_block_error,
    "access_code_error": access_code_error,
    "header_error": header_error,
    "payload_error": payload_error,
    "packet_error_probabilities": _packet_error_probabilities,
}


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss counters of every memoized FEC function.

    Returns ``{function: {"hits": ..., "misses": ..., "size": ...}}`` —
    the observability hook for the fast path's claim that the error
    decomposition is computed once per packet shape, not once per
    transmission.
    """
    return {
        name: {
            "hits": function.cache_info().hits,
            "misses": function.cache_info().misses,
            "size": function.cache_info().currsize,
        }
        for name, function in _CACHED_FUNCTIONS.items()
    }


def clear_caches() -> None:
    """Reset every memoized FEC table (tests isolating cache statistics)."""
    for function in _CACHED_FUNCTIONS.values():
        function.cache_clear()
