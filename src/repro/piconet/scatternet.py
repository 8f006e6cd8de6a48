"""Scatternet co-simulation: two piconets, one clock, bridge nodes.

A scatternet is a set of piconets sharing devices: here, two piconets
("A" and "B") whose masters run their TDD loops on the scatternet's one
:class:`~repro.sim.engine.Environment`, plus bridge slaves that
time-share the two masters under a :class:`~repro.piconet.bridge.
BridgeSchedule`.  The driver wires three things together:

* both piconets are constructed against the scatternet's ``env``, so
  their slot grids advance in lock-step (the event queue interleaves
  every master and source deterministically, by time, then insertion
  order);
* each bridge installs its per-role presence function on both piconets
  (:meth:`~repro.piconet.piconet.Piconet.set_bridge_presence`), making
  polls to an absent bridge guaranteed failures;
* optionally, both piconets sit in one :class:`~repro.baseband.
  interference.InterferenceField`, coupling their hop patterns into
  per-link BER (the ``two_piconet_interference`` pack uses the field
  without bridges; ``bridge_split`` uses bridges without the field).
"""

from __future__ import annotations

from typing import Dict, List

from repro.piconet.bridge import ROLE_A, ROLE_B, BridgeNode, BridgeSchedule
from repro.piconet.piconet import Piconet
from repro.sim.engine import Environment


class Scatternet:
    """Two or more piconets co-advanced on one clock."""

    def __init__(self):
        self.env = Environment()
        self._piconets: Dict[str, Piconet] = {}
        self._bridges: List[BridgeNode] = []
        self._field = None

    # -- construction --------------------------------------------------------
    def adopt_piconet(self, name: str, piconet: Piconet) -> Piconet:
        """Register a piconet built against this scatternet's ``env``.

        Co-advancing a piconet that lives on another clock, or two under
        one name, would silently desynchronise the ensemble, so both are
        rejected.
        """
        if name in self._piconets:
            raise ValueError(f"piconet {name!r} already registered")
        if piconet.env is not self.env:
            raise ValueError(
                f"piconet {name!r} was built against a different "
                f"Environment; pass Scatternet.env when constructing it")
        self._piconets[name] = piconet
        return piconet

    def piconet(self, name: str) -> Piconet:
        piconet = self._piconets.get(name)
        if piconet is None:
            known = ", ".join(sorted(self._piconets)) or "<none>"
            raise KeyError(
                f"unknown piconet {name!r}; registered: {known}")
        return piconet

    def add_bridge(self, name: str, schedule: BridgeSchedule,
                   piconet_a: str, slave_a: int,
                   piconet_b: str, slave_b: int,
                   negotiated: bool = False) -> BridgeNode:
        """Register a bridge slave time-sharing two piconets.

        ``slave_a`` / ``slave_b`` are the AM addresses the bridge holds in
        each piconet (a device's AM address is piconet-local).  By default
        both piconets treat transactions addressed to an absent bridge as
        guaranteed poll failures; with ``negotiated=True`` both masters
        know the hold schedule and skip planned polls during absence
        (``bridge_skipped_polls`` in each piconet's slot accounting).
        """
        bridge = BridgeNode(name=name, schedule=schedule, residences={
            ROLE_A: (piconet_a, slave_a),
            ROLE_B: (piconet_b, slave_b),
        }, negotiated=negotiated)
        self.piconet(piconet_a).set_bridge_presence(
            slave_a, schedule.presence(ROLE_A), negotiated=negotiated)
        self.piconet(piconet_b).set_bridge_presence(
            slave_b, schedule.presence(ROLE_B), negotiated=negotiated)
        self._bridges.append(bridge)
        return bridge

    def bridge(self, name: str) -> BridgeNode:
        """The registered bridge named ``name``."""
        for bridge in self._bridges:
            if bridge.name == name:
                return bridge
        known = ", ".join(sorted(b.name for b in self._bridges)) or "<none>"
        raise KeyError(f"unknown bridge {name!r}; registered: {known}")

    def roam_bridge(self, name: str, share_a: float) -> BridgeNode:
        """Re-divide a bridge's residency (a timeline ``bridge-roam``).

        Rebuilds the bridge's schedule with the new ``share_a`` and
        re-installs the per-role presence functions on both masters.
        Re-registration is idempotent on the piconet side
        (:meth:`~repro.piconet.piconet.Piconet.set_bridge_presence` resets
        the per-slave absence accounting and flags a topology change).
        """
        bridge = self.bridge(name)
        schedule = bridge.reschedule(share_a)
        for role, (piconet_name, slave) in sorted(bridge.residences.items()):
            self.piconet(piconet_name).set_bridge_presence(
                slave, schedule.presence(role), negotiated=bridge.negotiated)
        return bridge

    def attach_field(self, field) -> None:
        """Couple every registered piconet into an
        :class:`~repro.baseband.interference.InterferenceField`.

        Each piconet (by its scatternet name, which must match its field
        registration) gets the field's recorder as its air recorder, so
        its actual transmissions drive everyone else's collision BER —
        the ``crowded_room`` coupled mode.  Call after all piconets are
        added and registered with the field.
        """
        self._field = field
        for name, piconet in self._piconets.items():
            piconet.set_air_recorder(field.recorder(name))

    @property
    def bridges(self) -> List[BridgeNode]:
        return list(self._bridges)

    # -- running -------------------------------------------------------------
    def run(self, duration_seconds: float) -> None:
        """Start every piconet's master loop and co-advance the ensemble
        by ``duration_seconds``."""
        if duration_seconds <= 0:
            raise ValueError("duration must be positive")
        for piconet in self._piconets.values():
            piconet.start()
        self.env.run(until=self.env.now
                     + int(round(duration_seconds * 1_000_000)))
