"""Baseband timing constants.

Bluetooth divides each second into 1600 slots of 625 us.  Master
transmissions start in even-numbered slots, the addressed slave answers in
the slot(s) immediately following the master's packet.  The simulator keeps
time in integer microseconds so the slot grid is exact.
"""

from __future__ import annotations

#: Duration of one baseband slot in microseconds.
SLOT_US: int = 625

#: Duration of one baseband slot in seconds.
SLOT_SECONDS: float = SLOT_US / 1_000_000.0

#: Number of slots per second (the paper's "each second is divided into 1600
#: time slots").
SLOTS_PER_SECOND: int = 1600

#: Maximum number of slaves active in a piconet.
MAX_ACTIVE_SLAVES: int = 7

#: Gross symbol rate of the Bluetooth 1.x radio, bits per second.
SYMBOL_RATE_BPS: int = 1_000_000


def us_to_seconds(us: float) -> float:
    """Convert microseconds to seconds."""
    return us / 1_000_000.0


def seconds_to_us(seconds: float) -> int:
    """Convert seconds to (rounded) integer microseconds."""
    return int(round(seconds * 1_000_000.0))
