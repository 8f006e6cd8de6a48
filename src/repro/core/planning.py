"""Poll planners: the fixed-interval and variable-interval pollers.

Both planners are simulator-independent state machines.  They know the poll
interval ``t_i`` and service rate ``R_i`` of one poll stream, keep track of
the next *planned* poll time and are told about every executed poll through
:meth:`record_poll`.  The piconet-facing poller (:mod:`repro.core.pfp`)
executes a planned poll as soon as the planned time has passed and the
stream is the highest-priority one that is due.

Fixed-interval poller (paper Section 3.1)
    Polls are planned with fixed spacing ``t_i``, regardless of whether they
    find data, and are never skipped.

Variable-interval poller (paper Section 3.2)
    Three improvements, each individually toggleable for the ablation
    benchmark:

    1. after the last segment of a packet of size ``L``, the next poll is
       planned ``L / R_i`` after the planned time of the first poll that
       served the packet (for the minimum-efficiency packet size this
       reduces to ``t_i``);
    2. after an unsuccessful poll (no GS segment of the flow resulted), the
       next poll is planned ``t_i`` after the *actual* time of that poll;
    3. a planned poll for a master-to-slave flow with an empty queue is
       skipped altogether (the master knows its own queues; it cannot know
       the slaves', so this improvement only applies to pure downlink
       streams).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.piconet.flows import DOWNLINK, UPLINK


@dataclass(frozen=True)
class PlannerConfig:
    """Static parameters of one poll stream's planner.

    All times are in the same (arbitrary) unit as the ``now`` values passed
    to the planner; the rate is in bytes per that unit.
    """

    flow_id: int
    interval: float
    rate: float
    #: UPLINK, DOWNLINK, or "BOTH" for a piggybacked pair
    direction: str = UPLINK

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("poll interval must be positive")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.direction not in (UPLINK, DOWNLINK, "BOTH"):
            raise ValueError(f"invalid direction {self.direction!r}")


@dataclass(frozen=True)
class ServedSegment:
    """What a poll delivered for the planned flow (``None`` if nothing)."""

    hl_packet_id: int
    is_last_segment: bool
    hl_packet_size: int
    #: arrival time of the higher-layer packet at its queue (same unit as
    #: the planner's clock); used to base the postponement of improvement 1
    #: when the flow had been idle.
    hl_arrival_time: Optional[float] = None


class BasePlanner:
    """Common state of both planners."""

    def __init__(self, config: PlannerConfig, start_time: float = 0.0):
        self.config = config
        #: planned time of the next poll
        self.next_planned = float(start_time)
        #: number of polls recorded
        self.polls_recorded = 0
        #: number of recorded polls that served no data for this stream
        self.unsuccessful_polls = 0

    @property
    def flow_id(self) -> int:
        return self.config.flow_id

    @property
    def interval(self) -> float:
        return self.config.interval

    def is_due(self, now: float, has_data: Optional[bool] = None) -> bool:
        """Whether a poll should be executed at (or before) ``now``."""
        raise NotImplementedError

    def record_poll(self, actual_time: float,
                    served: Optional[ServedSegment]) -> None:
        """Digest an executed poll and plan the next one."""
        raise NotImplementedError

    def _account(self, served: Optional[ServedSegment]) -> None:
        self.polls_recorded += 1
        if served is None:
            self.unsuccessful_polls += 1


class FixedIntervalPlanner(BasePlanner):
    """Section 3.1: polls planned with fixed spacing ``t_i``, never skipped."""

    def is_due(self, now: float, has_data: Optional[bool] = None) -> bool:
        return self.next_planned <= now

    def record_poll(self, actual_time: float,
                    served: Optional[ServedSegment]) -> None:
        self._account(served)
        self.next_planned = self.next_planned + self.config.interval


class VariableIntervalPlanner(BasePlanner):
    """Section 3.2: the fixed-interval poller plus the three improvements."""

    def __init__(self, config: PlannerConfig, start_time: float = 0.0,
                 postpone_by_packet_size: bool = True,
                 postpone_after_unsuccessful: bool = True,
                 skip_when_no_downlink_data: bool = True):
        super().__init__(config, start_time)
        self.postpone_by_packet_size = postpone_by_packet_size
        self.postpone_after_unsuccessful = postpone_after_unsuccessful
        self.skip_when_no_downlink_data = skip_when_no_downlink_data
        self._current_packet_id: Optional[int] = None
        self._current_packet_first_planned: Optional[float] = None
        #: polls avoided by improvement 3 are not observable here (they are
        #: simply never executed); improvement statistics therefore live in
        #: the piconet slot accounting.

    # -- improvement 3 ------------------------------------------------------
    def is_due(self, now: float, has_data: Optional[bool] = None) -> bool:
        if (self.skip_when_no_downlink_data
                and self.config.direction == DOWNLINK
                and has_data is False):
            return False
        return self.next_planned <= now

    # -- improvements 1 and 2 ----------------------------------------------
    def record_poll(self, actual_time: float,
                    served: Optional[ServedSegment]) -> None:
        self._account(served)
        planned = self.next_planned

        if served is None:
            self._current_packet_id = None
            self._current_packet_first_planned = None
            if self.postpone_after_unsuccessful:
                self.next_planned = actual_time + self.config.interval
            else:
                self.next_planned = planned + self.config.interval
            return

        # The effective planned time never precedes the packet's arrival:
        # when the stream was dormant (downlink skip) the planned time can be
        # stale, and polling cadence must be measured from when data existed.
        base = planned
        if served.hl_arrival_time is not None:
            base = max(base, served.hl_arrival_time)

        if served.hl_packet_id != self._current_packet_id:
            # first segment of a new higher-layer packet
            self._current_packet_id = served.hl_packet_id
            self._current_packet_first_planned = base

        if served.is_last_segment:
            first_planned = self._current_packet_first_planned
            self._current_packet_id = None
            self._current_packet_first_planned = None
            if self.postpone_by_packet_size:
                # Improvement 1: the fluid model serves L bytes in L / R.
                self.next_planned = first_planned + \
                    served.hl_packet_size / self.config.rate
            else:
                self.next_planned = base + self.config.interval
        else:
            self.next_planned = base + self.config.interval
