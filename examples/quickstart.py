#!/usr/bin/env python3
"""Quickstart: a delay-bounded voice flow next to best-effort traffic.

Describes a two-slave piconet as a declarative ``ScenarioSpec`` — one
64 kbit/s Guaranteed Service uplink flow with a 30 ms delay bound, one
greedy best-effort uploader competing for the remaining capacity — then
compiles and runs it, printing the resulting throughput and delays.

The spec is *data*: it validates at construction, round-trips through
``to_dict()``/``from_dict()`` (so sweeps and remote workers can ship it as
plain JSON), and ``compile(seed)`` builds the piconet, admission control,
poller and traffic sources in one step.

Run with:  python examples/quickstart.py [--duration SECONDS]
"""

import argparse

from repro.piconet.flows import BE, GS, UPLINK
from repro.scenario import FlowSpec, PiconetSpec, ScenarioSpec, gs_bound_met

#: the scenario, declaratively: a voice slave with a 30 ms GS bound and a
#: laptop offering far more best-effort traffic than fits
SPEC = ScenarioSpec(piconets=(PiconetSpec(
    name="quickstart",
    slaves=("headset", "laptop"),
    flows=(
        # 64 kbit/s voice: one 144..176-byte packet every 20 ms, admitted
        # with a 30 ms delay bound (the manager negotiates the service
        # rate from the poller's error terms, Eq. 1 of the paper)
        FlowSpec(1, slave=1, direction=UPLINK, traffic_class=GS,
                 interval_s=0.020, size=(144, 176), delay_bound=0.030),
        # greedy uploader: a 176-byte packet every 3 ms (~470 kbit/s)
        FlowSpec(2, slave=2, direction=UPLINK, traffic_class=BE,
                 interval_s=0.003, size=176),
    )),))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=10.0,
                        help="simulated seconds (default: %(default)s)")
    args = parser.parse_args()

    # the spec is plain data: serializable, mutable by dotted path
    assert ScenarioSpec.from_dict(SPEC.to_dict()) == SPEC

    compiled = SPEC.compile(seed=1)
    scenario = compiled.primary
    setup = scenario.gs_setups[1]
    if not setup.accepted:
        raise SystemExit(f"voice flow rejected: {setup.reason}")
    print(f"admitted voice flow: rate {setup.rate:.0f} B/s, "
          f"poll interval {setup.interval * 1000:.2f} ms, "
          f"analytical bound "
          f"{scenario.manager.delay_bound_for(1) * 1000:.2f} ms")

    compiled.run(duration_seconds=args.duration)

    for state in scenario.piconet.flow_states():
        stats = scenario.piconet.flow_stats(state.spec.flow_id)
        print(f"flow {stats['flow_id']} ({stats['class']}): "
              f"{stats['throughput_bps'] / 1000.0:6.1f} kbit/s, "
              f"mean delay {stats['delay_mean'] * 1000.0:6.2f} ms, "
              f"max delay {stats['delay_max'] * 1000.0:6.2f} ms")
    print(f"slots: {scenario.piconet.slot_accounting()}")
    voice = scenario.gs_delay_summary()[1]
    print(f"voice delay bound respected: {gs_bound_met(voice)}")


if __name__ == "__main__":
    main()
