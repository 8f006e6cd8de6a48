"""Statistics, text tables and sweep findings.

:mod:`repro.analysis.stats` reduces samples and replications,
:mod:`repro.analysis.reporting` renders aligned text tables and
:mod:`repro.analysis.findings` scans completed sweep rows for anomalies
(``python -m repro.experiments analyze``).
"""

from repro.analysis.stats import (
    aggregate_mean_ci,
    jain_fairness,
    summarize,
    z_value,
)
from repro.analysis.reporting import format_table

__all__ = [
    "aggregate_mean_ci",
    "format_table",
    "jain_fairness",
    "summarize",
    "z_value",
]
