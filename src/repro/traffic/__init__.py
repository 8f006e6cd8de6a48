"""Traffic generation: the sources that offer packets to piconet flows.

Delivered traffic is read back per flow through
:meth:`repro.piconet.piconet.Piconet.flow_stats` and
:class:`repro.scenario.CompiledPiconet`.
"""

from repro.traffic.sources import (
    CBRSource,
    OnOffSource,
    PoissonSource,
    TraceSource,
    TrafficSource,
)

__all__ = [
    "CBRSource",
    "OnOffSource",
    "PoissonSource",
    "TraceSource",
    "TrafficSource",
]
