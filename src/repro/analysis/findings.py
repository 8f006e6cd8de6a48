"""Automated analysis of completed sweep rows: bottlenecks and anomalies.

Once sweeps run continuously on the fabric, nobody re-reads every result
table — so this module scans aggregated sweep rows (a
:class:`~repro.experiments.orchestrator.SweepResult` payload, or any saved
``run --json`` file) against a set of named rules and emits a
structured findings report.  The idea follows WisIO's multi-perspective
bottleneck detection for HPC workflows: each rule is one perspective over
the same rows, and the report is the union of what the perspectives flag.

Built-in rules:

``gs_bound_violated``
    A row reports a violated GS delay bound (``gs_bound_violated`` or any
    ``*_gs_bound_violated`` metric that is true, or — after replication
    aggregation turned disagreeing verdicts into a fraction — positive).
``compliance_cliff``
    A compliance-style metric (``*compliance*``, ``bound_met``,
    ``bound_respected``) drops by :data:`CLIFF_DROP` or more between
    adjacent grid points — the sweep crossed a capacity edge between two
    sampled values.
``starved_flows``
    A row whose throughput breakdown shows at least one flow at (near)
    zero while a sibling flow moves data (ratio below
    :data:`STARVED_RATIO`), or an explicit ``*starved*`` verdict.
``zero_goodput``
    Every throughput metric of a row is zero — the scenario moved no data
    at all, which almost always means a misconfiguration rather than a
    result.
``ci_blowup``
    A replicated metric whose confidence interval half-width exceeds
    :data:`CI_RELATIVE_LIMIT` of its mean magnitude — the mean is noise,
    not signal; the sweep needs more replications.

:data:`ANALYSIS_RULES` maps each name to its rule; ``python -m
repro.experiments analyze <experiment>`` runs a sweep (store-backed, so
completed points are free) and prints the report.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional

#: minimum drop of a compliance metric between adjacent points to flag
CLIFF_DROP = 0.3

#: a flow is starved when it moves less than this fraction of the busiest
#: sibling flow's throughput (and that sibling is actually moving data)
STARVED_RATIO = 0.01

#: CI half-width above this fraction of ``|mean|`` is a blowup
CI_RELATIVE_LIMIT = 0.5

#: metrics treated as throughput/goodput: ``*_kbps``/``*_bps`` columns and
#: per-slave ``S1``..``S7`` shorthand columns
_THROUGHPUT_KEY = re.compile(r"(_k?bps$|^S\d+$|goodput)")

#: metrics treated as compliance fractions / verdicts
_COMPLIANCE_KEY = re.compile(r"(compliance|bound_met|bound_respected)")


@dataclass
class Finding:
    """One rule hit on one sweep row."""

    rule: str
    severity: str            #: ``"critical"`` or ``"warning"``
    row_index: int           #: index into the sweep's aggregated rows
    point: Dict[str, object]  #: the row's swept-axis values (for display)
    metric: str
    value: object
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "severity": self.severity,
                "row_index": self.row_index, "point": self.point,
                "metric": self.metric, "value": self.value,
                "message": self.message}


def _swept_point(row: Mapping) -> Dict[str, object]:
    """The row's parameter point (axes plus defaults), for display."""
    return dict(row.get("point", {}))


def _metrics(row: Mapping) -> Dict[str, object]:
    return row.get("mean", {}) or {}


def _truthy_fraction(value: object) -> bool:
    """True for ``True`` and for positive fractions (replication splits)."""
    if isinstance(value, bool):
        return value
    return isinstance(value, (int, float)) and value > 0


# ------------------------------------------------------------------- rules

def _rule_gs_bound_violated(rows: List[Mapping], replications: int
                            ) -> Iterable[Finding]:
    for index, row in enumerate(rows):
        for key, value in _metrics(row).items():
            if not (key == "gs_bound_violated"
                    or key.endswith("_gs_bound_violated")):
                continue
            if _truthy_fraction(value):
                detail = "violated" if value is True \
                    else f"violated in {value:.0%} of replications"
                yield Finding(
                    rule="gs_bound_violated", severity="critical",
                    row_index=index, point=_swept_point(row), metric=key,
                    value=value,
                    message=f"GS delay bound {detail} at "
                            f"{_swept_point(row)}")


def _rule_compliance_cliff(rows: List[Mapping], replications: int
                           ) -> Iterable[Finding]:
    for index in range(1, len(rows)):
        previous, current = _metrics(rows[index - 1]), _metrics(rows[index])
        for key, value in current.items():
            if not _COMPLIANCE_KEY.search(key):
                continue
            before, after = previous.get(key), value
            before = float(before) if isinstance(before, (bool, int, float)) \
                else None
            after = float(after) if isinstance(after, (bool, int, float)) \
                else None
            if before is None or after is None:
                continue
            if before - after >= CLIFF_DROP:
                yield Finding(
                    rule="compliance_cliff", severity="warning",
                    row_index=index, point=_swept_point(rows[index]),
                    metric=key, value=after,
                    message=f"{key} fell {before:.2f} -> {after:.2f} "
                            f"between adjacent points "
                            f"{_swept_point(rows[index - 1])} and "
                            f"{_swept_point(rows[index])}")


def _rule_starved_flows(rows: List[Mapping], replications: int
                        ) -> Iterable[Finding]:
    for index, row in enumerate(rows):
        metrics = _metrics(row)
        for key, value in metrics.items():
            if "starved" in key and _truthy_fraction(value):
                yield Finding(
                    rule="starved_flows", severity="warning",
                    row_index=index, point=_swept_point(row), metric=key,
                    value=value,
                    message=f"{key} reported at {_swept_point(row)}")
        numeric = {key: float(value)
                   for key, value in metrics.items()
                   if _THROUGHPUT_KEY.search(key)
                   and isinstance(value, (int, float))
                   and not isinstance(value, bool)}
        if len(numeric) < 2:
            continue
        busiest = max(numeric.values())
        if busiest <= 0:
            continue  # the zero_goodput rule owns the all-dead case
        for key, value in numeric.items():
            if value <= busiest * STARVED_RATIO:
                yield Finding(
                    rule="starved_flows", severity="warning",
                    row_index=index, point=_swept_point(row), metric=key,
                    value=value,
                    message=f"{key}={value:g} while the busiest sibling "
                            f"moves {busiest:g} at {_swept_point(row)}")


def _rule_zero_goodput(rows: List[Mapping], replications: int
                       ) -> Iterable[Finding]:
    for index, row in enumerate(rows):
        numeric = {key: float(value)
                   for key, value in _metrics(row).items()
                   if _THROUGHPUT_KEY.search(key)
                   and isinstance(value, (int, float))
                   and not isinstance(value, bool)}
        if numeric and all(value == 0 for value in numeric.values()):
            yield Finding(
                rule="zero_goodput", severity="critical", row_index=index,
                point=_swept_point(row), metric=",".join(sorted(numeric)),
                value=0,
                message=f"every throughput metric is zero at "
                        f"{_swept_point(row)}")


def _rule_ci_blowup(rows: List[Mapping], replications: int
                    ) -> Iterable[Finding]:
    if replications < 2:
        return
    for index, row in enumerate(rows):
        means = _metrics(row)
        for key, bounds in (row.get("ci") or {}).items():
            mean = means.get(key)
            if not isinstance(mean, (int, float)) or isinstance(mean, bool):
                continue
            half = (float(bounds[1]) - float(bounds[0])) / 2.0
            scale = abs(float(mean))
            if scale > 0 and half / scale > CI_RELATIVE_LIMIT:
                yield Finding(
                    rule="ci_blowup", severity="warning", row_index=index,
                    point=_swept_point(row), metric=key, value=half,
                    message=f"{key} CI half-width {half:g} is "
                            f"{half / scale:.0%} of the mean {mean:g} "
                            f"({replications} replications are not "
                            f"enough)")


#: ``rule(rows, replications) -> iterable of findings``; rows are the
#: aggregated sweep rows (each with ``point`` / ``mean`` / ``ci``)
AnalysisRule = Callable[[List[Mapping], int], Iterable[Finding]]

#: every rule, by the name ``analyze --rule`` selects it with
ANALYSIS_RULES: Dict[str, AnalysisRule] = {
    "gs_bound_violated": _rule_gs_bound_violated,
    "compliance_cliff": _rule_compliance_cliff,
    "starved_flows": _rule_starved_flows,
    "zero_goodput": _rule_zero_goodput,
    "ci_blowup": _rule_ci_blowup,
}


# ------------------------------------------------------------------ report

@dataclass
class AnalysisReport:
    """Every finding the rules produced for one sweep."""

    experiment: str
    rows_scanned: int
    replications: int
    findings: List[Finding] = field(default_factory=list)

    @property
    def critical(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "critical"]

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_json(self) -> str:
        payload = {"experiment": self.experiment,
                   "rows_scanned": self.rows_scanned,
                   "replications": self.replications,
                   "findings": [f.to_dict() for f in self.findings]}
        return json.dumps(payload, sort_keys=True, indent=2)


def analyze_payload(payload: Mapping,
                    rules: Optional[Iterable[str]] = None
                    ) -> AnalysisReport:
    """Run (selected) rules over a sweep-result payload.

    ``payload`` is the parsed form of
    :meth:`~repro.experiments.orchestrator.SweepResult.to_json` — the same
    dict a saved ``run --json`` file holds.  ``rules`` selects a subset by
    name (default: every rule); unknown names raise
    ``ValueError`` with the known ones.
    """
    selected = list(ANALYSIS_RULES) if rules is None else list(rules)
    unknown = [name for name in selected if name not in ANALYSIS_RULES]
    if unknown:
        known = ", ".join(sorted(ANALYSIS_RULES))
        raise ValueError(f"unknown analysis rule(s) {unknown}; "
                         f"known: {known}")
    rows = list(payload.get("rows", []))
    replications = int(payload.get("replications", 1))
    report = AnalysisReport(
        experiment=str(payload.get("experiment", "?")),
        rows_scanned=len(rows), replications=replications)
    for name in selected:
        report.findings.extend(ANALYSIS_RULES[name](rows, replications))
    severity_rank = {"critical": 0, "warning": 1}
    report.findings.sort(key=lambda f: (f.row_index,
                                        severity_rank.get(f.severity, 9),
                                        f.rule, f.metric))
    return report


def analyze_result(result, rules: Optional[Iterable[str]] = None
                   ) -> AnalysisReport:
    """:func:`analyze_payload` over a live ``SweepResult``."""
    return analyze_payload(json.loads(result.to_json()), rules)


def format_report(report: AnalysisReport) -> str:
    """Human-readable rendering of a report (the CLI's output)."""
    counts = ", ".join(f"{rule}: {count}"
                       for rule, count in sorted(report.by_rule().items()))
    lines = [f"{report.experiment} — scanned {report.rows_scanned} rows "
             f"({report.replications} replication(s)): "
             f"{len(report.findings)} finding(s)"
             + (f" [{counts}]" if counts else "")]
    for finding in report.findings:
        lines.append(f"  [{finding.severity:>8}] row {finding.row_index:>3} "
                     f"{finding.rule}: {finding.message}")
    if not report.findings:
        lines.append("  no anomalies flagged")
    return "\n".join(lines)
