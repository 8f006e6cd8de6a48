"""Bluetooth baseband substrate.

Models the parts of the Bluetooth 1.x baseband that the paper's delay
analysis depends on: the 625 us TDD slot grid, the ACL/SCO baseband packet
catalogue with payload capacities and slot counts, segmentation of
higher-layer packets into baseband packets, and the bit-error-rate radio
channel models with their inter-piconet interference.
"""

from repro.baseband.constants import (
    SLOT_SECONDS,
    SLOT_US,
    SLOTS_PER_SECOND,
    us_to_seconds,
)
from repro.baseband.packets import (
    ACL_TYPES,
    BasebandPacket,
    PacketType,
    SCO_TYPES,
    get_packet_type,
    max_transaction_slots,
)
from repro.baseband.segmentation import (
    BestFitSegmentationPolicy,
    ChannelAdaptiveSegmentationPolicy,
    LinkQualityEstimator,
    Reassembler,
    SegmentationPolicy,
)
from repro.baseband.fec import (
    PacketErrorProbabilities,
    packet_error_probabilities,
)
from repro.baseband.channel import (
    Channel,
    ChannelMap,
    GilbertElliottChannel,
    IdealChannel,
    LinkId,
    LossyChannel,
    TransmissionResult,
)
from repro.baseband.interference import (
    HOP_CHANNELS,
    HopSequence,
    InterfererProcess,
    InterferenceAwareChannel,
    InterferenceField,
    interference_channel_map,
)

__all__ = [
    "ACL_TYPES",
    "BasebandPacket",
    "BestFitSegmentationPolicy",
    "Channel",
    "ChannelAdaptiveSegmentationPolicy",
    "ChannelMap",
    "GilbertElliottChannel",
    "HOP_CHANNELS",
    "HopSequence",
    "IdealChannel",
    "InterfererProcess",
    "InterferenceAwareChannel",
    "InterferenceField",
    "LinkId",
    "LinkQualityEstimator",
    "LossyChannel",
    "PacketErrorProbabilities",
    "PacketType",
    "Reassembler",
    "SCO_TYPES",
    "SLOTS_PER_SECOND",
    "SLOT_SECONDS",
    "SLOT_US",
    "SegmentationPolicy",
    "TransmissionResult",
    "get_packet_type",
    "interference_channel_map",
    "max_transaction_slots",
    "packet_error_probabilities",
    "us_to_seconds",
]
