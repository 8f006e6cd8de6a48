"""Tests of the FEC / packet error-probability model."""

import math

import pytest

from repro.baseband.fec import (
    CRC_BITS,
    access_code_error,
    hamming_block_error,
    header_error,
    packet_error_probabilities,
    payload_error,
    payload_header_bytes,
    repetition_bit_error,
)
from repro.baseband.packets import BasebandPacket, get_packet_type


def test_repetition_code_corrects_single_errors():
    # a decoded bit fails only on 2-of-3 or 3-of-3 corruption
    p = 0.1
    expected = 3 * p * p * (1 - p) + p ** 3
    assert repetition_bit_error(p) == pytest.approx(expected)
    # quadratic improvement at small p
    assert repetition_bit_error(1e-3) == pytest.approx(3e-6, rel=0.01)


def test_repetition_code_boundaries():
    assert repetition_bit_error(0.0) == 0.0
    assert repetition_bit_error(1.0) == pytest.approx(1.0)


def test_hamming_block_corrects_one_error():
    p = 0.01
    # block fails on >= 2 errors in 15 bits
    ok = (1 - p) ** 15 + 15 * p * (1 - p) ** 14
    assert hamming_block_error(p) == pytest.approx(1 - ok)
    assert hamming_block_error(0.0) == 0.0
    with pytest.raises(ValueError):
        hamming_block_error(0.01, block_bits=0)


def test_access_code_tolerates_threshold_errors():
    assert access_code_error(0.0) == 0.0
    # far below uncoded loss: at 1e-3, 64 uncoded bits fail with ~6%,
    # but the correlator needs 8+ errors
    assert access_code_error(1e-3) < 1e-12
    assert access_code_error(0.5) > 0.9


def test_header_is_repetition_protected():
    assert header_error(0.0) == 0.0
    assert header_error(1e-3) == pytest.approx(18 * 3e-6, rel=0.05)


def test_payload_header_bytes_by_type():
    assert payload_header_bytes(get_packet_type("DH1")) == 1
    assert payload_header_bytes(get_packet_type("DH3")) == 2
    assert payload_header_bytes(get_packet_type("DM5")) == 2
    assert payload_header_bytes(get_packet_type("HV3")) == 0
    assert payload_header_bytes(get_packet_type("POLL")) == 0


def test_fec_payload_beats_uncoded_at_low_ber():
    dm3 = get_packet_type("DM3")
    dh3 = get_packet_type("DH3")
    assert payload_error(dm3, 100, 1e-4) < payload_error(dh3, 100, 1e-4)


def test_uncoded_payload_error_is_exact():
    dh1 = get_packet_type("DH1")
    bits = (10 + 1) * 8 + CRC_BITS
    assert payload_error(dh1, 10, 1e-3) == pytest.approx(
        1 - (1 - 1e-3) ** bits)


def test_hv1_uses_repetition_code():
    hv1 = get_packet_type("HV1")
    bit_fail = repetition_bit_error(1e-3)
    assert payload_error(hv1, 10, 1e-3) == pytest.approx(
        1 - (1 - bit_fail) ** 80)


def test_decomposition_combines_sections():
    packet = BasebandPacket(get_packet_type("DH3"), payload=100)
    probs = packet_error_probabilities(packet, 1e-3)
    assert 0 < probs.payload < 1
    assert probs.not_received == pytest.approx(
        1 - (1 - probs.access) * (1 - probs.header))
    assert probs.any == pytest.approx(
        1 - (1 - probs.access) * (1 - probs.header) * (1 - probs.payload))
    # payload dominates at moderate BER: header and access are protected
    assert probs.payload > 100 * probs.not_received


def test_decomposition_validates_ber():
    packet = BasebandPacket(get_packet_type("DH1"), payload=10)
    with pytest.raises(ValueError):
        packet_error_probabilities(packet, 1.5)


def test_dm_vs_dh_goodput_crossover_exists():
    """The pack's premise: DH wins at low BER, DM at high BER."""
    dm3 = BasebandPacket(get_packet_type("DM3"), payload=121)
    dh3 = BasebandPacket(get_packet_type("DH3"), payload=183)

    def goodput(packet, ber):
        return packet.payload * (1 - packet_error_probabilities(
            packet, ber).any)

    assert goodput(dh3, 3e-5) > goodput(dm3, 3e-5)
    assert goodput(dm3, 1e-3) > goodput(dh3, 1e-3)
