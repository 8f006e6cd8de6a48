"""Efficient Double Cycle (EDC) poller, after Bruno, Conti and Gregori.

EDC decouples downlink scheduling from uplink probing by running two
interleaved polling cycles: a *TX cycle* visiting the slaves for which the
master holds downlink data, and an *RX cycle* probing slaves for uplink
data.  Slaves that repeatedly answer a probe with NULL are backed off
exponentially (up to a cap), which keeps the probing overhead low for idle
slaves while still discovering new uplink traffic quickly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.schedulers.base import KIND_BE, Poller, PollOutcome, TransactionPlan


#: Most RX cycles an idle slave's uplink probe is backed off to.
MAX_BACKOFF = 8


class EfficientDoubleCyclePoller(Poller):
    """EDC with exponential uplink-probe backoff (up to
    :data:`MAX_BACKOFF` cycles)."""

    name = "edc"

    def __init__(self):
        super().__init__()
        self._slaves: List[int] = []
        self._rx_index = 0
        self._tx_index = 0
        self._phase_tx = True
        #: per-slave backoff state: number of cycles to skip and current skip
        self._backoff: Dict[int, int] = {}
        self._skips_left: Dict[int, int] = {}

    def attach(self, piconet) -> None:
        super().attach(piconet)
        self._slaves = piconet.slaves()
        self._backoff = {s: 1 for s in self._slaves}
        self._skips_left = {s: 0 for s in self._slaves}

    # -- scheduling -----------------------------------------------------------
    def select(self, now: float) -> Optional[TransactionPlan]:
        self._require_attached()
        if not self._slaves:
            return None
        plan = self._select_tx() if self._phase_tx else self._select_rx()
        self._phase_tx = not self._phase_tx
        if plan is not None:
            return plan
        # the preferred phase had nothing to do; try the other one
        return self._select_rx() if self._phase_tx else self._select_tx()

    def _select_tx(self) -> Optional[TransactionPlan]:
        """One visit of the TX cycle: slaves with pending downlink data."""
        pending = [slave for slave in self._slaves
                   if any(spec.is_downlink and self.downlink_has_data(spec.flow_id)
                          for spec in self.flows_of_slave(slave))]
        if not pending:
            return None
        slave = pending[self._tx_index % len(pending)]
        self._tx_index += 1
        return self.build_plan_for_slave(slave, kind=KIND_BE)

    def _select_rx(self) -> Optional[TransactionPlan]:
        """One visit of the RX cycle: probe a slave for uplink data."""
        for _ in range(len(self._slaves)):
            slave = self._slaves[self._rx_index % len(self._slaves)]
            self._rx_index += 1
            if not any(spec.is_uplink for spec in self.flows_of_slave(slave)):
                continue
            if self._skips_left[slave] > 0:
                self._skips_left[slave] -= 1
                continue
            return self.build_plan_for_slave(slave, kind=KIND_BE)
        return None

    def notify(self, outcome: PollOutcome) -> None:
        slave = outcome.plan.slave
        if outcome.ul_carried_data:
            self._backoff[slave] = 1
            self._skips_left[slave] = 0
        elif not outcome.dl_carried_data:
            self._backoff[slave] = min(MAX_BACKOFF, self._backoff[slave] * 2)
            self._skips_left[slave] = self._backoff[slave] - 1
