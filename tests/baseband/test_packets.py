"""Tests of the baseband packet catalogue."""

import pytest

from repro.baseband import (
    BasebandPacket,
    get_packet_type,
    max_transaction_slots,
)


def test_catalogue_payloads_match_specification():
    expected = {"DM1": 17, "DH1": 27, "DM3": 121, "DH3": 183,
                "DM5": 224, "DH5": 339, "HV3": 30, "POLL": 0, "NULL": 0}
    for name, payload in expected.items():
        assert get_packet_type(name).max_payload == payload


def test_catalogue_slot_counts():
    expected = {"DH1": 1, "DH3": 3, "DH5": 5, "DM3": 3, "POLL": 1, "HV3": 1}
    for name, slots in expected.items():
        assert get_packet_type(name).slots == slots


def test_packet_type_durations():
    dh3 = get_packet_type("DH3")
    assert dh3.duration_us == 3 * 625
    assert dh3.duration_seconds == pytest.approx(1.875e-3)


def test_unknown_packet_type_raises():
    with pytest.raises(KeyError):
        get_packet_type("DH7")


def test_lookup_is_case_insensitive():
    assert get_packet_type("dh3") is get_packet_type("DH3")


def test_baseband_packet_rejects_oversized_payload():
    with pytest.raises(ValueError):
        BasebandPacket(get_packet_type("DH1"), payload=28)


def test_baseband_packet_rejects_negative_payload():
    with pytest.raises(ValueError):
        BasebandPacket(get_packet_type("DH1"), payload=-1)


def test_max_transaction_slots_dh3_both_ways():
    # the paper's M_t: DH3 down + DH3 up = 6 slots (3.75 ms)
    assert max_transaction_slots(["DH1", "DH3"]) == 6
    assert max_transaction_slots(["DH1"]) == 2
    assert max_transaction_slots(["DH5"]) == 10


def test_packet_ids_are_unique():
    first = BasebandPacket(get_packet_type("DH1"), payload=10)
    second = BasebandPacket(get_packet_type("DH1"), payload=10)
    assert first.packet_id != second.packet_id
