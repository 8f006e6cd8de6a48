"""Traffic generation and measurement."""

from repro.traffic.sources import (
    CBRSource,
    OnOffSource,
    PoissonSource,
    TraceSource,
    TrafficSource,
)
from repro.traffic.sinks import DelayThroughputSink

__all__ = [
    "CBRSource",
    "DelayThroughputSink",
    "OnOffSource",
    "PoissonSource",
    "TraceSource",
    "TrafficSource",
]
