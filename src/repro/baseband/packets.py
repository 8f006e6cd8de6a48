"""Baseband packet catalogue and packet objects.

The payload capacities and slot occupancies follow the Bluetooth 1.0b/1.1
baseband specification that the paper targets:

========  =====  ================  =====================================
Type      Slots  Max payload (B)   Notes
========  =====  ================  =====================================
DM1       1      17                2/3 FEC protected
DH1       1      27                unprotected
DM3       3      121               2/3 FEC protected
DH3       3      183               unprotected (used in the paper)
DM5       5      224               2/3 FEC protected
DH5       5      339               unprotected
AUX1      1      29                no CRC (not retransmitted)
POLL      1      0                 master poll, must be acknowledged
NULL      1      0                 empty response, no ACK required
HV1       1      10                SCO, 1/3 FEC
HV2       1      20                SCO, 2/3 FEC
HV3       1      30                SCO, unprotected (64 kbit/s voice)
========  =====  ================  =====================================
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.baseband.constants import SLOT_SECONDS, SLOT_US


@dataclass(frozen=True)
class PacketType:
    """Static description of one baseband packet type."""

    name: str
    slots: int
    max_payload: int
    link: str  # "ACL", "SCO" or "CONTROL"
    fec: bool = False
    has_crc: bool = True

    @property
    def duration_us(self) -> int:
        """Air time of the packet in microseconds (whole slots)."""
        return self.slots * SLOT_US

    @property
    def duration_seconds(self) -> float:
        """Air time of the packet in seconds."""
        return self.slots * SLOT_SECONDS

    def __str__(self) -> str:
        return self.name


# -- catalogue ---------------------------------------------------------------

DM1 = PacketType("DM1", 1, 17, "ACL", fec=True)
DH1 = PacketType("DH1", 1, 27, "ACL")
DM3 = PacketType("DM3", 3, 121, "ACL", fec=True)
DH3 = PacketType("DH3", 3, 183, "ACL")
DM5 = PacketType("DM5", 5, 224, "ACL", fec=True)
DH5 = PacketType("DH5", 5, 339, "ACL")
AUX1 = PacketType("AUX1", 1, 29, "ACL", has_crc=False)

POLL = PacketType("POLL", 1, 0, "CONTROL")
NULL = PacketType("NULL", 1, 0, "CONTROL", has_crc=False)

HV1 = PacketType("HV1", 1, 10, "SCO", fec=True, has_crc=False)
HV2 = PacketType("HV2", 1, 20, "SCO", fec=True, has_crc=False)
HV3 = PacketType("HV3", 1, 30, "SCO", has_crc=False)

#: All ACL data packet types, by name.
ACL_TYPES: Dict[str, PacketType] = {
    t.name: t for t in (DM1, DH1, DM3, DH3, DM5, DH5, AUX1)
}

#: All SCO packet types, by name.
SCO_TYPES: Dict[str, PacketType] = {t.name: t for t in (HV1, HV2, HV3)}

#: Control packets, by name.
CONTROL_TYPES: Dict[str, PacketType] = {t.name: t for t in (POLL, NULL)}

_ALL_TYPES: Dict[str, PacketType] = {**ACL_TYPES, **SCO_TYPES, **CONTROL_TYPES}


def get_packet_type(name: str) -> PacketType:
    """Look up a packet type by its name (e.g. ``"DH3"``)."""
    try:
        return _ALL_TYPES[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown baseband packet type {name!r}; "
            f"known types: {sorted(_ALL_TYPES)}") from None


def resolve_types(types: Iterable) -> Tuple[PacketType, ...]:
    """Normalise an iterable of names and/or :class:`PacketType` objects."""
    resolved = []
    for t in types:
        if isinstance(t, PacketType):
            resolved.append(t)
        else:
            resolved.append(get_packet_type(t))
    if not resolved:
        raise ValueError("at least one packet type is required")
    return tuple(resolved)


def max_transaction_slots(allowed_types: Sequence[PacketType]) -> int:
    """Worst-case slots of one poll transaction (downlink + uplink packet).

    The paper's ``M_t`` (initial value of the Fig. 2 algorithm) is the maximum
    transmission time of a *segment*, i.e. of a complete master+slave
    exchange.  With DH3 allowed in both directions this is 6 slots (3.75 ms).
    """
    allowed = resolve_types(allowed_types)
    worst = max(t.slots for t in allowed)
    return 2 * worst


# -- packet instances ---------------------------------------------------------

_packet_ids = itertools.count(1)


@dataclass(slots=True)
class BasebandPacket:
    """One baseband packet on the air.

    Parameters
    ----------
    ptype:
        The baseband packet type.
    payload:
        Number of user bytes actually carried (``<= ptype.max_payload``).
    flow_id:
        Identifier of the higher-layer flow the payload belongs to (``None``
        for POLL / NULL packets).
    hl_packet_id / segment_index / is_last_segment / hl_packet_size:
        Reassembly metadata: which higher-layer packet this segment belongs
        to, its position, whether it completes the packet, and the total
        higher-layer packet size in bytes.
    hl_arrival_time:
        Time at which the higher-layer packet became available at the source
        queue (same unit as the simulation clock).
    """

    ptype: PacketType
    payload: int = 0
    flow_id: Optional[int] = None
    hl_packet_id: Optional[int] = None
    segment_index: int = 0
    is_last_segment: bool = False
    hl_packet_size: int = 0
    hl_arrival_time: Optional[float] = None
    packet_id: int = field(init=False)

    # written out (the dataclass keeps a class's own __init__): every
    # segment builds one, and a generated __init__ would add a
    # default_factory and a __post_init__ call to each
    def __init__(self, ptype: PacketType, payload: int = 0,
                 flow_id: Optional[int] = None,
                 hl_packet_id: Optional[int] = None, segment_index: int = 0,
                 is_last_segment: bool = False, hl_packet_size: int = 0,
                 hl_arrival_time: Optional[float] = None) -> None:
        if payload < 0:
            raise ValueError("payload cannot be negative")
        if payload > ptype.max_payload:
            raise ValueError(
                f"payload {payload} exceeds {ptype.name} capacity "
                f"{ptype.max_payload}")
        self.ptype = ptype
        self.payload = payload
        self.flow_id = flow_id
        self.hl_packet_id = hl_packet_id
        self.segment_index = segment_index
        self.is_last_segment = is_last_segment
        self.hl_packet_size = hl_packet_size
        self.hl_arrival_time = hl_arrival_time
        self.packet_id = next(_packet_ids)

    @property
    def slots(self) -> int:
        return self.ptype.slots

    @property
    def duration_us(self) -> int:
        return self.ptype.duration_us

    @property
    def carries_data(self) -> bool:
        """Whether the packet carries user payload."""
        return self.payload > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BasebandPacket({self.ptype.name}, payload={self.payload}, "
                f"flow={self.flow_id}, hl={self.hl_packet_id}, "
                f"seg={self.segment_index}, last={self.is_last_segment})")
