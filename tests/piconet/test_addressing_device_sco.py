"""Tests of slave addressing and SCO reservations.

The piconet is its own device registry: a slave is its AM address.
"""

import pytest

from repro.piconet import FlowSpec, Piconet, ScoReservationTable
from repro.piconet.sco import ScoLink
from repro.baseband.packets import get_packet_type


def test_device_registry_assigns_am_addresses_in_order():
    piconet = Piconet()
    assert piconet.slaves() == []
    assert [piconet.add_slave() for _ in range(3)] == [1, 2, 3]
    assert piconet.slaves() == [1, 2, 3]
    piconet.add_flow(FlowSpec(1, slave=3, direction="UL",
                              traffic_class="BE"))
    with pytest.raises(ValueError, match="slave 4 is not part of the"):
        piconet.add_flow(FlowSpec(2, slave=4, direction="UL",
                                  traffic_class="BE"))
    with pytest.raises(ValueError, match="slave 0 is not part of the"):
        piconet.park_slave(0)


def test_device_registry_caps_at_seven_slaves():
    piconet = Piconet()
    for _ in range(7):
        piconet.add_slave()
    with pytest.raises(ValueError, match="at most 7 active slaves"):
        piconet.add_slave()
    assert piconet.slaves() == [1, 2, 3, 4, 5, 6, 7]


def test_sco_link_parameters():
    link = ScoLink(slave=1, packet_type=get_packet_type("HV3"), t_sco=6)
    # one 30-byte HV3 payload per direction every 6 slots: 64 kbit/s
    assert link.packet_type.max_payload * 8 * 1600 / link.t_sco \
        == pytest.approx(64_000)
    assert link.reserves(0) and link.reserves(6) and not link.reserves(2)


def test_sco_link_validation():
    with pytest.raises(ValueError):
        ScoLink(slave=1, packet_type=get_packet_type("DH1"), t_sco=6)
    with pytest.raises(ValueError):
        ScoLink(slave=1, packet_type=get_packet_type("HV3"), t_sco=6, offset=1)


def test_sco_table_assigns_non_conflicting_offsets():
    table = ScoReservationTable()
    first = table.add_link(1, "HV3")
    second = table.add_link(2, "HV3")
    assert first.offset != second.offset
    assert len(table) == 2


def test_sco_table_rejects_overfull_reservations():
    table = ScoReservationTable()
    table.add_link(1, "HV3")
    table.add_link(2, "HV3")
    table.add_link(3, "HV3")
    with pytest.raises(ValueError):
        table.add_link(4, "HV3")


def test_sco_table_lookup_and_next_reservation():
    table = ScoReservationTable()
    link = table.add_link(1, "HV3")
    assert table.link_for_slot(link.offset) is link
    assert table.link_for_slot(link.offset + 1) is None
    assert table.next_reservation(link.offset + 1) == link.offset + 6
    assert ScoReservationTable().next_reservation(0) is None
