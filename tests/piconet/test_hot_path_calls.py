"""A deterministic guard on the master loop's per-transaction cost.

Wall time is too noisy to gate in a unit test, but the number of Python
calls into ``repro`` per transaction is exact: the same scenario and seed
make the same calls on every run.  The figure-4 piconet with a
Gilbert-Elliott channel and three interferers (the repository benchmark's
``figure4_gilbert_interference`` load, shortened) exercises the master
loop, PFP and the GS manager, the sources, segmentation, the channel and
the interference field.  A change that adds a call per transaction to
that path has to raise the ceiling on purpose.
"""

import cProfile
import os
import pstats

import repro
from repro.scenario import (
    ChannelSpec,
    InterferenceSpec,
    ScenarioSpec,
    compile_scenario,
    figure4_piconet_spec,
)

#: calls into ``repro`` per transaction, recorded when the transaction's
#: plan/commit helpers were folded into the master loop (70.40; it was
#: 90.37 with the helpers); the slack is far below one call per
#: transaction
CALLS_PER_TRANSACTION_CEILING = 70.5

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def _calls_per_transaction():
    piconet = figure4_piconet_spec(
        delay_requirement=0.040,
        channel=ChannelSpec(model="gilbert", ber=3e-4))
    spec = ScenarioSpec(
        piconets=(piconet,),
        interference=InterferenceSpec(victim=piconet.name,
                                      interferer_duties=(0.6, 0.5, 0.4)))
    compiled = compile_scenario(spec, seed=1)
    profiler = cProfile.Profile()
    profiler.enable()
    compiled.run(2.0)
    profiler.disable()
    calls = sum(entry[1] for (filename, _line, _name), entry
                in pstats.Stats(profiler).stats.items()
                if os.path.abspath(filename).startswith(PACKAGE_DIR))
    master = compiled.primary.piconet
    transactions = master.transactions_gs + master.transactions_be
    return calls, transactions


def test_master_loop_calls_per_transaction_stay_under_the_ceiling():
    calls, transactions = _calls_per_transaction()
    assert transactions > 500  # the run really exercised the loop
    per_transaction = calls / transactions
    assert per_transaction <= CALLS_PER_TRANSACTION_CEILING, (
        f"{per_transaction:.2f} calls into repro per transaction "
        f"(ceiling {CALLS_PER_TRANSACTION_CEILING})")


def test_call_count_is_deterministic():
    assert _calls_per_transaction() == _calls_per_transaction()
