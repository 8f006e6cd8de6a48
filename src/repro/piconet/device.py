"""Master and slave device objects.

Devices are mostly bookkeeping containers: the scheduling intelligence lives
in the poller, and the TDD mechanics live in :class:`repro.piconet.piconet.Piconet`.
Keeping explicit device objects makes scenario code read naturally
(``piconet.add_slave("headset")``) and gives per-device statistics a home.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.piconet.addressing import AMAddress, BDAddress


@dataclass
class Device:
    """Common state of master and slaves."""

    name: str
    bd_addr: BDAddress

    def __str__(self) -> str:
        return self.name


@dataclass
class Master(Device):
    """The piconet master: owns the clock and performs all polling."""


@dataclass
class Slave(Device):
    """An active slave, addressed by its AM address."""

    am_addr: AMAddress = AMAddress(1)
    #: whether the slave currently holds an SCO link with the master
    has_sco: bool = False

    @property
    def address(self) -> int:
        """The slave's AM address as a plain integer (1..7)."""
        return int(self.am_addr)


class DeviceRegistry:
    """Keeps track of the master and the (at most seven) active slaves."""

    def __init__(self, master_name: str = "master"):
        self.master = Master(name=master_name, bd_addr=BDAddress.from_int(0))
        self._slaves: Dict[int, Slave] = {}

    def add_slave(self, name: Optional[str] = None) -> Slave:
        """Register a new slave and assign it the next free AM address."""
        if len(self._slaves) >= 7:
            raise ValueError("a piconet supports at most 7 active slaves")
        am = next(a for a in range(1, 8) if a not in self._slaves)
        slave = Slave(
            name=name or f"S{am}",
            bd_addr=BDAddress.from_int(am),
            am_addr=AMAddress(am),
        )
        self._slaves[am] = slave
        return slave

    def slave(self, am_addr: int) -> Slave:
        try:
            return self._slaves[int(am_addr)]
        except KeyError:
            raise KeyError(f"no slave with AM address {am_addr}") from None

    @property
    def slaves(self) -> List[Slave]:
        return [self._slaves[a] for a in sorted(self._slaves)]

    def __contains__(self, am_addr: int) -> bool:
        return int(am_addr) in self._slaves

    def __len__(self) -> int:
        return len(self._slaves)
