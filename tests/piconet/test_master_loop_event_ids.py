"""Event-id parity of the master loop on the reference event loop.

The master's TDD loop runs as a :class:`~repro.sim.events.LoopWakeup`
that takes one event id at start and one per suspension, the ids a
process yielding ``env.timeout(delay)`` took.  The values below were
recorded with the master running as such a process.  A wake-up that
takes a different number of ids shifts every later tie-break, so these
pin the id counter and the heap keys themselves, even where no
statistic moves.
"""

from dataclasses import replace

from repro.scenario import compile_scenario
from repro.scenario.factories import coupled_room_spec, figure4_spec


def _reference_run(spec, seed, duration_s):
    spec = replace(spec, piconets=tuple(
        replace(piconet, fast_path=False) for piconet in spec.piconets))
    compiled = compile_scenario(spec, seed=seed)
    compiled.run(duration_s)
    return compiled


def _heap_keys(env):
    return sorted((when, eid) for when, eid, _event in env._queue)


def test_coupled_room_takes_the_recorded_event_ids():
    compiled = _reference_run(coupled_room_spec(piconets=4), 3, 0.05)
    assert compiled.env._eid == 315
    assert _heap_keys(compiled.env) == [
        (50000, 309), (50000, 313), (50625, 311), (50627, 233),
        (51250, 314), (51259, 223), (52608, 245), (53364, 236),
        (53698, 240), (54015, 252), (54813, 227), (55411, 232),
        (55823, 251), (56233, 261), (56311, 237), (58450, 262),
        (59286, 279), (60734, 285), (61090, 275), (62477, 268),
        (62616, 271), (63756, 300), (63898, 301), (64348, 280),
        (64972, 295), (66145, 304), (67789, 296), (69523, 306)]


def test_sco_and_gs_piconet_takes_the_recorded_event_ids():
    spec = figure4_spec(sco_slaves=(7,), be_slaves=(4, 5, 6))
    compiled = _reference_run(spec, 3, 0.05)
    accounting = compiled.primary.piconet.slot_accounting()
    assert accounting["sco"] > 0 and accounting["gs"] > 0
    assert compiled.env._eid == 89
    assert _heap_keys(compiled.env) == [
        (50000, 87), (50701, 65), (52115, 66), (60550, 77), (61800, 60),
        (61899, 79), (62226, 67), (63407, 72), (64284, 74), (69050, 88),
        (75015, 84), (78388, 82)]
