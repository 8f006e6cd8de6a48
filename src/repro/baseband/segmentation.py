"""Segmentation of higher-layer packets into baseband packets.

The paper (Section 3) notes that the way higher-layer packets are segmented
into baseband packets, together with the set of allowed baseband packet
types, determines the *poll efficiency* of a flow and therefore the poll
rate needed to honour a delay bound.

Two policies are provided:

* :class:`BestFitSegmentationPolicy` — the paper's policy: "the largest
  available baseband packet is used, unless there is a smaller baseband
  packet available in which the remainder of the higher layer packet fits"
  (instantiated with DH1+DH3 this is exactly the Section 4 policy: "DH3 is
  used unless the remainder fits in DH1").
* :class:`LargestPacketSegmentationPolicy` — always use the largest allowed
  packet, regardless of the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baseband.packets import BasebandPacket, PacketType, resolve_types


class SegmentationError(ValueError):
    """Raised when a higher-layer packet cannot be segmented or reassembled."""


#: one segment of a plan: ``(ptype, payload, segment_index, is_last)``
PlanEntry = Tuple[PacketType, int, int, bool]


class SegmentationPolicy:
    """Base class: maps a higher-layer packet size to baseband packet sizes.

    :meth:`choose_type` must depend only on the remainder (and on the
    policy's fixed type set): :meth:`segment` memoises the resulting plan
    per higher-layer size.

    Parameters
    ----------
    allowed_types:
        The ACL baseband packet types the policy may use (names or
        :class:`PacketType` objects).
    """

    def __init__(self, allowed_types: Iterable):
        self.allowed_types: Tuple[PacketType, ...] = resolve_types(allowed_types)
        data_types = [t for t in self.allowed_types if t.max_payload > 0]
        if not data_types:
            raise ValueError("policy needs at least one data-carrying type")
        #: allowed data types sorted by ascending capacity
        self.by_capacity: Tuple[PacketType, ...] = tuple(
            sorted(data_types, key=lambda t: (t.max_payload, t.slots)))
        self.largest: PacketType = self.by_capacity[-1]
        self.smallest: PacketType = self.by_capacity[0]
        self._plans: Dict[int, Tuple[PlanEntry, ...]] = {}

    # -- interface ----------------------------------------------------------
    def choose_type(self, remaining: int) -> PacketType:
        """Choose the packet type for the next segment given the remainder."""
        raise NotImplementedError

    # -- derived operations ----------------------------------------------------
    def segment_sizes(self, size: int) -> List[Tuple[PacketType, int]]:
        """Return the list of ``(packet_type, payload_bytes)`` segments.

        The segmentation is greedy front-to-back, as in the Bluetooth L2CAP
        segmentation the paper assumes.
        """
        if size <= 0:
            raise SegmentationError(f"higher-layer packet size must be positive, got {size}")
        remaining = int(size)
        segments: List[Tuple[PacketType, int]] = []
        while remaining > 0:
            ptype = self.choose_type(remaining)
            take = min(remaining, ptype.max_payload)
            segments.append((ptype, take))
            remaining -= take
        return segments

    def segment_count(self, size: int) -> int:
        """Number of baseband packets (polls) needed for a packet of ``size``."""
        return len(self.segment_sizes(size))

    def segment_plan(self, size: int) -> Tuple[PlanEntry, ...]:
        """:meth:`segment_sizes` with each segment's index and last flag,
        memoised per size."""
        plan = self._plans.get(size)
        if plan is None:
            pieces = self.segment_sizes(size)
            last = len(pieces) - 1
            plan = tuple((ptype, payload, index, index == last)
                         for index, (ptype, payload) in enumerate(pieces))
            self._plans[size] = plan
        return plan

    def segment(self, size: int, flow_id: Optional[int] = None,
                hl_packet_id: Optional[int] = None,
                arrival_time: Optional[float] = None) -> List[BasebandPacket]:
        """Build the actual :class:`BasebandPacket` segments for a packet."""
        return [BasebandPacket(ptype, payload, flow_id, hl_packet_id, index,
                               is_last, size, arrival_time)
                for ptype, payload, index, is_last in self.segment_plan(size)]

    def max_segment_slots(self) -> int:
        """Slots of the largest baseband packet the policy can emit."""
        return self.largest.slots

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "+".join(t.name for t in self.by_capacity)
        return f"{type(self).__name__}({names})"


class BestFitSegmentationPolicy(SegmentationPolicy):
    """The paper's policy.

    Use the largest allowed baseband packet, unless the remainder of the
    higher-layer packet fits in a smaller one — in that case use the
    *smallest* packet that still fits the remainder.
    """

    def choose_type(self, remaining: int) -> PacketType:
        for ptype in self.by_capacity:
            if remaining <= ptype.max_payload:
                return ptype
        return self.largest


class LargestPacketSegmentationPolicy(SegmentationPolicy):
    """Always use the largest allowed baseband packet type."""

    def choose_type(self, remaining: int) -> PacketType:
        return self.largest


class LinkQualityEstimator:
    """EWMA estimate of the segment loss rate observed on one link.

    Fed by the piconet's poll outcomes (one observation per data segment
    put on the air: lost or delivered), read by channel-adaptive policies.
    The exponential weighting forgets old fades at a rate set by ``alpha``.
    """

    def __init__(self, alpha: float = 0.05, initial_loss: float = 0.0):
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be within (0, 1], got {alpha}")
        if not 0 <= initial_loss <= 1:
            raise ValueError(
                f"initial_loss must be within [0, 1], got {initial_loss}")
        self.alpha = alpha
        self._loss = initial_loss
        self.observations = 0

    def observe(self, error: bool) -> None:
        """Record one transmitted segment (``error=True`` when it failed)."""
        self._loss += self.alpha * ((1.0 if error else 0.0) - self._loss)
        self.observations += 1

    @property
    def loss_estimate(self) -> float:
        """Current smoothed segment loss rate in [0, 1]."""
        return self._loss


class ChannelAdaptiveSegmentationPolicy(SegmentationPolicy):
    """Pick DM- vs DH-type packets per link from observed loss.

    The DM types sacrifice payload capacity for 2/3 FEC; above a certain
    bit error rate they deliver more goodput than the larger unprotected DH
    types.  The master cannot measure a link's BER directly, but it *does*
    observe every transaction outcome — this policy keeps a
    :class:`LinkQualityEstimator` fed from those outcomes (the piconet
    calls :meth:`observe_transmission`) and switches the active type set
    with hysteresis: robust (FEC) types when the smoothed loss exceeds
    ``enter_robust``, back to the fast set once it drops below
    ``exit_robust``.  Schedulers are oblivious: they keep planning polls
    while the queue's segmentation silently adapts per link.
    """

    def __init__(self, fast_types: Iterable = ("DH1", "DH3"),
                 robust_types: Iterable = ("DM1", "DM3"),
                 enter_robust: float = 0.15, exit_robust: float = 0.05,
                 estimator: Optional[LinkQualityEstimator] = None,
                 min_observations: int = 8):
        if not 0 <= exit_robust <= enter_robust <= 1:
            raise ValueError(
                f"need 0 <= exit_robust <= enter_robust <= 1, got "
                f"{exit_robust} / {enter_robust}")
        if min_observations < 1:
            raise ValueError(
                f"min_observations must be >= 1, got {min_observations}")
        self._fast = BestFitSegmentationPolicy(fast_types)
        self._robust = BestFitSegmentationPolicy(robust_types)
        super().__init__(tuple(self._fast.allowed_types)
                         + tuple(self._robust.allowed_types))
        self.enter_robust = enter_robust
        self.exit_robust = exit_robust
        self.estimator = estimator if estimator is not None \
            else LinkQualityEstimator()
        self.min_observations = min_observations
        self.robust_active = False

    # -- feedback from the piconet ------------------------------------------
    def observe_transmission(self, error: bool) -> None:
        """Digest one poll outcome on this policy's link."""
        self.estimator.observe(error)
        if self.estimator.observations < self.min_observations:
            return
        loss = self.estimator.loss_estimate
        if not self.robust_active and loss > self.enter_robust:
            self.robust_active = True
        elif self.robust_active and loss < self.exit_robust:
            self.robust_active = False

    # -- segmentation --------------------------------------------------------
    @property
    def active(self) -> BestFitSegmentationPolicy:
        """The type set currently in force (fast or robust)."""
        return self._robust if self.robust_active else self._fast

    def choose_type(self, remaining: int) -> PacketType:
        return self.active.choose_type(remaining)

    def segment_plan(self, size: int) -> Tuple[PlanEntry, ...]:
        # each mode keeps its own cache: a flip reads the other one
        return self.active.segment_plan(size)

    def max_segment_slots(self) -> int:
        # worst case over both modes: the mode may flip between the SCO
        # guard's budgeting and the actual transmission
        return max(self._fast.max_segment_slots(),
                   self._robust.max_segment_slots())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "robust" if self.robust_active else "fast"
        return (f"ChannelAdaptiveSegmentationPolicy({mode}, "
                f"loss={self.estimator.loss_estimate:.3f})")


def segment_sizes(size: int, allowed_types: Iterable,
                  policy_cls=BestFitSegmentationPolicy) -> List[Tuple[PacketType, int]]:
    """Convenience wrapper: segment ``size`` bytes under a fresh policy."""
    return policy_cls(allowed_types).segment_sizes(size)


@dataclass
class _PartialPacket:
    expected_next: int = 0
    received_bytes: int = 0
    size: int = 0
    arrival_time: Optional[float] = None
    segments: List[BasebandPacket] = field(default_factory=list)


class Reassembler:
    """Reassembles higher-layer packets from baseband segments.

    Segments of one higher-layer packet must arrive in order (Bluetooth ACL
    links deliver in order); interleaving of *different* flows is allowed
    because reassembly state is tracked per flow.
    """

    def __init__(self):
        self._partial: Dict[Tuple[Optional[int], Optional[int]], _PartialPacket] = {}

    def push(self, segment: BasebandPacket) -> Optional[dict]:
        """Feed one segment; return packet info when it completes a packet.

        Returns
        -------
        dict or None
            ``None`` while the packet is incomplete.  When the last segment
            arrives, a dictionary with keys ``flow_id``, ``hl_packet_id``,
            ``size``, ``arrival_time`` and ``segments``.
        """
        if segment.is_last_segment and segment.segment_index == 0:
            key = (segment.flow_id, segment.hl_packet_id)
            if key not in self._partial:
                # a single-segment packet completes without a partial record
                _check_size(key, segment.payload, segment.hl_packet_size)
                return {
                    "flow_id": segment.flow_id,
                    "hl_packet_id": segment.hl_packet_id,
                    "size": segment.payload,
                    "arrival_time": segment.hl_arrival_time,
                    "segments": [segment],
                }
        return self._push_partial(segment)

    def _push_partial(self, segment: BasebandPacket) -> Optional[dict]:
        """:meth:`push` through a partial record (the general path)."""
        if not segment.carries_data and not segment.is_last_segment:
            return None
        key = (segment.flow_id, segment.hl_packet_id)
        state = self._partial.setdefault(key, _PartialPacket(
            size=segment.hl_packet_size, arrival_time=segment.hl_arrival_time))
        if segment.segment_index != state.expected_next:
            raise SegmentationError(
                f"out-of-order segment {segment.segment_index} for packet "
                f"{key}; expected {state.expected_next}")
        state.expected_next += 1
        state.received_bytes += segment.payload
        state.segments.append(segment)
        if not segment.is_last_segment:
            return None
        del self._partial[key]
        _check_size(key, state.received_bytes, state.size)
        return {
            "flow_id": segment.flow_id,
            "hl_packet_id": segment.hl_packet_id,
            "size": state.received_bytes,
            "arrival_time": state.arrival_time,
            "segments": list(state.segments),
        }

    @property
    def pending(self) -> int:
        """Number of higher-layer packets currently being reassembled."""
        return len(self._partial)


def _check_size(key, received: int, size: int) -> None:
    if size and received != size:
        raise SegmentationError(
            f"reassembled {received} bytes for packet {key}, "
            f"expected {size}")
