"""Traffic generation: the CBR source that offers packets to piconet flows.

Delivered traffic is read back per flow through
:meth:`repro.piconet.piconet.Piconet.flow_stats` and
:class:`repro.scenario.CompiledPiconet`.
"""

from repro.traffic.sources import CBRSource

__all__ = ["CBRSource"]
