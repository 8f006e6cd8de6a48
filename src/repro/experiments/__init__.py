"""The paper's experiments and the one way to run them.

Every experiment module registers its sweeps with the registry, one
:class:`ExperimentSpec` each: a parameter grid, fixed defaults, and a
module-level ``run_point(params, seed)`` that runs one point and returns
its rows.  The paper's results are the registered ``figure5``,
``delay_compliance`` (Table 2), ``bandwidth_savings`` (Table 3),
``admission_capacity`` (Table 4), ``sco_comparison`` (Table 5),
``baseline_comparison`` and ``improvement_ablation`` (the two ablations)
and ``lossy_channel`` (extension E1).  Table 1 is analytic and has no sweep:
:func:`compute_table1_parameters` derives it and :func:`format_table1`
prints it.

Every sweep runs through :class:`SweepRunner` and prints through
:func:`format_sweep`, whether it comes from the CLI, a benchmark, a test
or an example::

    python -m repro.experiments list
    python -m repro.experiments describe figure5
    python -m repro.experiments run figure5 --workers 4 --replications 3
    python -m repro.experiments run heavy_piconet --backend batch --progress
    python -m repro.experiments run figure5 --set channel.ber=1e-4

or from Python::

    result = SweepRunner(backend="serial").run(
        "delay_compliance", overrides={"duration_seconds": 2.0})
    print(format_sweep(result))
    rows = [row["mean"] for row in result.rows]

Every simulation experiment resolves its sweep point into a declarative
:class:`repro.scenario.ScenarioSpec` (registered on
``ExperimentSpec.scenario``) and compiles it, so dotted ``--set``
overrides mutate the scenario by path; see :mod:`repro.scenario`.

Beyond the paper, :mod:`repro.experiments.scenario_packs` registers the
``heavy_piconet``, ``mixed_sco_gs`` and ``be_load_scale`` workloads;
:mod:`repro.experiments.channel_packs` the per-link channel workloads
``link_quality_mix``, ``bursty_channel``, ``dm_vs_dh`` and ``multi_sco``
plus the inter-piconet packs ``two_piconet_interference``,
``bridge_split`` and ``crowded_room``;
:mod:`repro.experiments.admission_budget` contrasts oblivious and
budget-aware admission with ``admission_vs_ber`` and
``bridge_residency_admission``; :mod:`repro.experiments.churn_pack`
registers ``churn_recovery``, a timeline-driven interference burst with
mid-run flow renegotiation.  Every registered experiment's golden rows
are pinned as fixtures under ``tests/golden/``
(:mod:`repro.experiments.golden`, refreshed via ``python -m
repro.experiments regen-golden``).  See ``src/repro/experiments/README.md``
for the subsystem documentation.
"""

from repro.experiments.table1_parameters import (
    compute_table1_parameters,
    format_table1,
)
# importing each experiment module registers its ExperimentSpec
from repro.experiments import (  # noqa: F401
    admission_capacity,
    bandwidth_savings,
    baseline_comparison,
    delay_compliance,
    figure5,
    improvement_ablation,
    lossy_channel,
    sco_comparison,
)
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
    EVENT_DONE,
    EVENT_START,
    SweepProgress,
    SweepResult,
    SweepRunner,
    format_sweep,
    log_progress,
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
    "EVENT_DONE",
    "EVENT_START",
    "ExperimentSpec",
    "SweepProgress",
    "SweepResult",
    "SweepRunner",
    "experiment_names",
    "format_sweep",
    "get_experiment",
    "iter_experiments",
    "log_progress",
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
    "format_table1",
]
