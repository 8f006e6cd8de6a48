"""Flow descriptions and higher-layer packets.

A *flow* is a unidirectional stream of higher-layer packets between the
master and one slave.  Flows carry either Guaranteed Service (GS) traffic or
Best Effort (BE) traffic; the paper assumes logical channels keep the two
classes in separate queues and that a poll issued for a GS flow never carries
BE data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Flow direction constants.
UPLINK = "UL"      # slave -> master
DOWNLINK = "DL"    # master -> slave

#: Traffic class constants.
GS = "GS"          # Guaranteed Service
BE = "BE"          # Best Effort

_DEFAULT_ALLOWED_TYPES: Tuple[str, ...] = ("DH1", "DH3")

_hl_packet_ids = itertools.count(1)


@dataclass(frozen=True)
class FlowSpec:
    """Static description of a unidirectional flow.

    Parameters
    ----------
    flow_id:
        Unique integer identifier (the paper numbers flows 1..12).
    slave:
        AM address (1..7) of the slave the flow terminates at / originates
        from.
    direction:
        :data:`UPLINK` (slave to master) or :data:`DOWNLINK`.
    traffic_class:
        :data:`GS` or :data:`BE`.
    name:
        Optional human-readable name.
    allowed_types:
        Baseband packet types this flow's segments may use (paper Section 4
        allows DH1 and DH3).
    """

    flow_id: int
    slave: int
    direction: str
    traffic_class: str
    name: str = ""
    allowed_types: Tuple[str, ...] = _DEFAULT_ALLOWED_TYPES

    def __post_init__(self) -> None:
        if self.direction not in (UPLINK, DOWNLINK):
            raise ValueError(f"direction must be UL or DL, got {self.direction!r}")
        if self.traffic_class not in (GS, BE):
            raise ValueError(
                f"traffic_class must be GS or BE, got {self.traffic_class!r}")
        if not 1 <= self.slave <= 7:
            raise ValueError(f"slave AM address must be 1..7, got {self.slave}")
        if not self.allowed_types:
            raise ValueError("allowed_types may not be empty")
        if not self.name:
            object.__setattr__(self, "name", f"flow{self.flow_id}")

    @property
    def is_gs(self) -> bool:
        return self.traffic_class == GS

    @property
    def is_uplink(self) -> bool:
        return self.direction == UPLINK

    @property
    def is_downlink(self) -> bool:
        return self.direction == DOWNLINK


@dataclass(slots=True)
class HLPacket:
    """A higher-layer (e.g. IP / L2CAP SDU) packet offered to a flow."""

    flow_id: int
    size: int
    created: float
    packet_id: int = field(init=False)

    # written out (the dataclass keeps a class's own __init__): every
    # arrival builds one, and a generated __init__ would add a
    # default_factory and a __post_init__ call to each
    def __init__(self, flow_id: int, size: int, created: float) -> None:
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.flow_id = flow_id
        self.size = size
        self.created = created
        self.packet_id = next(_hl_packet_ids)
