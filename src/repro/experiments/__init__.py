"""Experiment drivers regenerating the paper's tables and figures.

Every module corresponds to one entry of the experiment index in DESIGN.md
and exposes a ``run_*`` function returning structured rows plus a
``format_*`` helper that renders the same table the corresponding benchmark
prints.  The benchmarks in ``benchmarks/`` are thin wrappers around these
functions.

Each module additionally registers an :class:`ExperimentSpec` (a parameter
grid plus a per-point ``run_point(params, seed)`` function) with the sweep
registry, so every experiment can be run on any execution backend with seed
replications and confidence intervals through the orchestrator::

    python -m repro.experiments list
    python -m repro.experiments describe figure5
    python -m repro.experiments run figure5 --workers 4 --replications 3
    python -m repro.experiments run heavy_piconet --backend batch --progress
    python -m repro.experiments run figure5 --set channel.ber=1e-4

Every simulation driver resolves its sweep point into a declarative
:class:`repro.scenario.ScenarioSpec` (registered on
``ExperimentSpec.scenario``) and compiles it — scenarios are typed,
serializable data that dotted ``--set`` overrides mutate by path; see
:mod:`repro.scenario` and the README's migration table.

Beyond the paper's tables, :mod:`repro.experiments.scenario_packs`
registers the ``heavy_piconet``, ``mixed_sco_gs`` and ``be_load_scale``
workloads, and :mod:`repro.experiments.channel_packs` the per-link channel
workloads ``link_quality_mix``, ``bursty_channel``, ``dm_vs_dh`` and
``multi_sco`` plus the inter-piconet packs ``two_piconet_interference``,
``bridge_split`` and ``crowded_room``;
:mod:`repro.experiments.admission_budget` contrasts oblivious and
budget-aware admission with ``admission_vs_ber`` and
``bridge_residency_admission``; :mod:`repro.experiments.churn_pack`
registers ``churn_recovery``, the timeline-driven interference burst
with mid-run flow renegotiation.  Every registered experiment's
golden rows are pinned as fixtures under ``tests/golden/``
(:mod:`repro.experiments.golden`, refreshed via ``python -m
repro.experiments regen-golden``).  See ``src/repro/experiments/README.md``
for the subsystem documentation.
"""

from repro.experiments.table1_parameters import (
    compute_table1_parameters,
    format_table1,
)
from repro.experiments.delay_compliance import (
    format_delay_compliance,
    run_delay_compliance,
)
from repro.experiments.figure5 import format_figure5, run_figure5
from repro.experiments.bandwidth_savings import (
    format_bandwidth_savings,
    run_bandwidth_savings,
)
from repro.experiments.admission_capacity import (
    format_admission_capacity,
    run_admission_capacity,
)
from repro.experiments.sco_comparison import format_sco_comparison, run_sco_comparison
from repro.experiments.baseline_comparison import (
    format_baseline_comparison,
    run_baseline_comparison,
)
from repro.experiments.improvement_ablation import (
    format_improvement_ablation,
    run_improvement_ablation,
)
from repro.experiments.lossy_channel import format_lossy_channel, run_lossy_channel
from repro.experiments.scenario_packs import (
    run_be_load_scale_point,
    run_heavy_piconet_point,
    run_mixed_sco_gs_point,
)
from repro.experiments.admission_budget import (
    run_admission_vs_ber_point,
    run_bridge_residency_admission_point,
)
from repro.experiments.churn_pack import run_churn_recovery_point
from repro.experiments.channel_packs import (
    run_bridge_split_point,
    run_bursty_channel_point,
    run_crowded_room_point,
    run_dm_vs_dh_point,
    run_link_quality_mix_point,
    run_multi_sco_point,
    run_two_piconet_interference_point,
)
from repro.experiments.orchestrator import (
    BACKENDS,
    BatchingProcessBackend,
    EVENT_DONE,
    EVENT_START,
    ExecutionBackend,
    SerialBackend,
    SweepProgress,
    SweepResult,
    SweepRunner,
    format_sweep,
    log_progress,
    make_backend,
)
from repro.experiments.registry import (
    ExperimentSpec,
    experiment_names,
    get_experiment,
    iter_experiments,
    register,
)

__all__ = [
    "BACKENDS",
    "BatchingProcessBackend",
    "EVENT_DONE",
    "EVENT_START",
    "ExecutionBackend",
    "ExperimentSpec",
    "SerialBackend",
    "SweepProgress",
    "SweepResult",
    "SweepRunner",
    "experiment_names",
    "format_sweep",
    "get_experiment",
    "iter_experiments",
    "log_progress",
    "make_backend",
    "register",
    "run_admission_vs_ber_point",
    "run_be_load_scale_point",
    "run_bridge_residency_admission_point",
    "run_bridge_split_point",
    "run_bursty_channel_point",
    "run_churn_recovery_point",
    "run_crowded_room_point",
    "run_dm_vs_dh_point",
    "run_heavy_piconet_point",
    "run_link_quality_mix_point",
    "run_mixed_sco_gs_point",
    "run_multi_sco_point",
    "run_two_piconet_interference_point",
    "compute_table1_parameters",
    "format_admission_capacity",
    "format_bandwidth_savings",
    "format_baseline_comparison",
    "format_delay_compliance",
    "format_figure5",
    "format_improvement_ablation",
    "format_lossy_channel",
    "format_sco_comparison",
    "format_table1",
    "run_admission_capacity",
    "run_bandwidth_savings",
    "run_baseline_comparison",
    "run_delay_compliance",
    "run_figure5",
    "run_improvement_ablation",
    "run_lossy_channel",
    "run_sco_comparison",
]
