"""SCO (Synchronous Connection-Oriented) link reservations.

An SCO link reserves a pair of slots (master TX + slave TX) every ``t_sco``
slots.  HV3 links (the common 64 kbit/s voice configuration) reserve one
pair in every six slots.  The paper's conclusions compare its GS/ACL polling
against such an SCO channel: SCO gives a small, hard delay bound but burns
its reserved slots whether or not they are needed and cannot retransmit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.baseband.packets import PacketType, SCO_TYPES, get_packet_type

#: t_sco values (in slots) mandated by the specification per HV packet type.
T_SCO_BY_TYPE = {"HV1": 2, "HV2": 4, "HV3": 6}


@dataclass(frozen=True)
class ScoLink:
    """One SCO link between the master and a slave."""

    slave: int
    packet_type: PacketType
    t_sco: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.packet_type.name not in SCO_TYPES:
            raise ValueError(f"{self.packet_type.name} is not an SCO packet type")
        if self.t_sco < 2 or self.t_sco % 2 != 0:
            raise ValueError("t_sco must be an even number of slots >= 2")
        if not 0 <= self.offset < self.t_sco:
            raise ValueError("offset must lie within one t_sco period")
        if self.offset % 2 != 0:
            raise ValueError("SCO reservations must start on a master (even) slot")

    def reserves(self, slot_index: int) -> bool:
        """Whether ``slot_index`` is the first slot of one of this link's pairs."""
        return slot_index % self.t_sco == self.offset


class ScoReservationTable:
    """The set of SCO links of a piconet, with conflict checking."""

    def __init__(self):
        self._links: List[ScoLink] = []

    def add_link(self, slave: int, packet_type="HV3",
                 offset: Optional[int] = None) -> ScoLink:
        """Create an SCO link, choosing a non-conflicting offset if needed."""
        ptype = packet_type if isinstance(packet_type, PacketType) else \
            get_packet_type(packet_type)
        t_sco = T_SCO_BY_TYPE[ptype.name]
        if offset is None:
            offset = self._find_free_offset(t_sco)
        link = ScoLink(slave=slave, packet_type=ptype, t_sco=t_sco, offset=offset)
        for existing in self._links:
            if self._conflicts(existing, link):
                raise ValueError(
                    f"SCO reservation conflict between slave {existing.slave} "
                    f"and slave {slave}")
        self._links.append(link)
        return link

    def _find_free_offset(self, t_sco: int) -> int:
        for offset in range(0, t_sco, 2):
            candidate = ScoLink(slave=1, packet_type=get_packet_type("HV3"),
                                t_sco=t_sco, offset=offset)
            if not any(self._conflicts(existing, candidate)
                       for existing in self._links):
                return offset
        raise ValueError("no free SCO reservation offset available")

    @staticmethod
    def _conflicts(a: ScoLink, b: ScoLink) -> bool:
        period = max(a.t_sco, b.t_sco)
        slots_a = {s for s in range(period * 2)
                   if a.reserves(s) or a.reserves(s - 1)}
        slots_b = {s for s in range(period * 2)
                   if b.reserves(s) or b.reserves(s - 1)}
        return bool(slots_a & slots_b)

    def link_for_slot(self, slot_index: int) -> Optional[ScoLink]:
        """The link whose reservation starts at ``slot_index`` (if any)."""
        for link in self._links:
            if link.reserves(slot_index):
                return link
        return None

    def next_reservation(self, slot_index: int) -> Optional[int]:
        """First slot index >= ``slot_index`` at which a reservation starts."""
        if not self._links:
            return None
        for slot in range(slot_index, slot_index + 12):
            if self.link_for_slot(slot) is not None:
                return slot
        return None

    def __len__(self) -> int:
        return len(self._links)
