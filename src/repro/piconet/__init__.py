"""Piconet substrate: slaves, flows, queues and the master's TDD loop.

A :class:`~repro.piconet.piconet.Piconet` wires together an environment, a
channel model, up to seven slaves, a set of unidirectional flows (each with
its own logical channel / queue) and a *poller* (the intra-piconet
scheduler).  A slave is its 3-bit AM address (1..7): ``add_slave()``
returns the next one and ``slaves()`` lists them.  The master loop
repeatedly asks the poller which transaction to run next and executes it
slot-accurately.
"""

from repro.piconet.flows import (
    BE,
    DOWNLINK,
    GS,
    FlowSpec,
    HLPacket,
    UPLINK,
)
from repro.piconet.queues import FlowQueue
from repro.piconet.piconet import FlowState, Piconet, PiconetConfig
from repro.piconet.sco import ScoLink, ScoReservationTable
from repro.piconet.bridge import BridgeNode, BridgeSchedule
from repro.piconet.scatternet import Scatternet

__all__ = [
    "BE",
    "BridgeNode",
    "BridgeSchedule",
    "DOWNLINK",
    "FlowQueue",
    "FlowSpec",
    "FlowState",
    "GS",
    "HLPacket",
    "Piconet",
    "PiconetConfig",
    "Scatternet",
    "ScoLink",
    "ScoReservationTable",
    "UPLINK",
]
