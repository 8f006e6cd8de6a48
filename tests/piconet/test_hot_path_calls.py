"""A deterministic guard on the per-transaction cost of the hot paths.

Wall time is too noisy to gate in a unit test, but the number of Python
calls into ``repro`` per transaction is exact: the same scenario and seed
make the same calls on every run.  Two loads are guarded:

* the figure-4 piconet with a Gilbert-Elliott channel and three
  interferers (the repository benchmark's ``figure4_gilbert_interference``
  load, shortened) exercises the master loop, PFP and the GS manager, the
  sources, segmentation, the channel and the duty-cycle interference
  field;
* a coupled room of eight round-robin piconets (the
  ``crowded_room_coupled_64`` load, shrunk) exercises the radio path:
  the link channel map, the interference-aware channel and the field's
  occupancy index, which every transmission reads and every transaction
  reports to.

A change that adds a call per transaction to either path has to raise
its ceiling on purpose.
"""

import cProfile
import gc
import os
import pstats

import pytest

import repro
from repro.scenario import (
    ChannelSpec,
    InterferenceSpec,
    ScenarioSpec,
    compile_scenario,
    coupled_room_spec,
    figure4_piconet_spec,
)

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def _figure4():
    piconet = figure4_piconet_spec(
        delay_requirement=0.040,
        channel=ChannelSpec(model="gilbert", ber=3e-4))
    return ScenarioSpec(
        piconets=(piconet,),
        interference=InterferenceSpec(victim=piconet.name,
                                      interferer_duties=(0.6, 0.5, 0.4)))


#: scenario -> (spec builder, simulated seconds, ceiling of calls into
#: ``repro`` per transaction, counted on a second run so process-wide
#: memo tables are warm).  Since a traffic source became its own heap
#: entry, fired inline by the master, the counts read 50.87 on figure 4
#: (56.10 before) and 26.07 on the room (28.71 before); the slack is
#: far below one call per transaction.
SCENARIOS = {
    "figure4": (_figure4, 2.0, 50.9),
    "coupled_room": (lambda: coupled_room_spec(piconets=8), 0.5, 26.1),
}


def _calls_per_transaction(scenario):
    build, seconds, _ceiling = SCENARIOS[scenario]
    # a first run fills the process-wide memo tables (FEC decompositions,
    # draw tables) this run reads, so the count does not depend on which
    # tests ran before it in the same process
    compile_scenario(build(), seed=1).run(seconds)
    compiled = compile_scenario(build(), seed=1)
    # collecting a finished run's suspended generators would resume them
    # (GeneratorExit) inside the profile
    gc.collect()
    gc.disable()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        compiled.run(seconds)
    finally:
        profiler.disable()
        gc.enable()
    calls = sum(entry[1] for (filename, _line, _name), entry
                in pstats.Stats(profiler).stats.items()
                if os.path.abspath(filename).startswith(PACKAGE_DIR))
    transactions = sum(
        piconet.piconet.transactions_gs + piconet.piconet.transactions_be
        for piconet in compiled.piconets.values())
    return calls, transactions


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_calls_per_transaction_stay_under_the_ceiling(scenario):
    calls, transactions = _calls_per_transaction(scenario)
    assert transactions > 500  # the run really exercised the loop
    per_transaction = calls / transactions
    ceiling = SCENARIOS[scenario][2]
    assert per_transaction <= ceiling, (
        f"{per_transaction:.2f} calls into repro per transaction "
        f"(ceiling {ceiling})")


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_call_count_is_deterministic(scenario):
    assert _calls_per_transaction(scenario) \
        == _calls_per_transaction(scenario)
