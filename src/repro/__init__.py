"""Reproduction of "Providing Delay Guarantees in Bluetooth" (ICDCSW 2003).

The package provides:

* ``repro.sim`` — the small discrete-event kernel the model runs on (the
  ns-2 replacement): timeouts, generator processes, source wake-ups,
  per-flow monitors and a shared clock;
* ``repro.baseband`` / ``repro.piconet`` — a slot-accurate Bluetooth
  piconet model (packet types, segmentation, channels, master TDD loop,
  SCO reservations);
* ``repro.core`` — the paper's contribution: Guaranteed Service admission
  control and delay-bounded polling (fixed-interval poller, variable-interval
  poller and the Predictive Fair Poller);
* ``repro.schedulers`` — baseline pollers from the literature;
* ``repro.traffic`` — traffic sources;
* ``repro.scenario`` — declarative scenario specs (the paper's Figure-4
  workload is ``figure4_spec``) compiled into runtime objects;
* ``repro.experiments`` — drivers that regenerate every table and figure of
  the paper's evaluation;
* ``repro.analysis`` — statistics, plain-text tables and the findings
  pass over completed sweep rows.

Quick start::

    from repro.scenario import figure4_spec

    scenario = figure4_spec(delay_requirement=0.040).compile(1)
    scenario.run(duration_seconds=10.0)
    print(scenario.primary.slave_throughputs_kbps())
    print(scenario.primary.gs_delay_summary())
"""

__version__ = "1.0.0"

from repro import analysis, baseband, core, piconet, schedulers, sim, traffic

__all__ = [
    "analysis",
    "baseband",
    "core",
    "piconet",
    "schedulers",
    "sim",
    "traffic",
    "__version__",
]
