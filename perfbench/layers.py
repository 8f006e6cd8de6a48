"""Fold a cProfile of one benchmark job into the per-layer table.

A layer is a module of ``repro`` named without its ``repro.`` prefix
(``piconet.batch_kernel``), with two merges the README's prediction
table relies on: ``sim.events`` counts as ``sim.engine`` and every
module of ``repro.schedulers`` as ``schedulers``.  ``stdlib.random``
holds the Mersenne-Twister draws (the Python module and its C methods).
Everything else folds into ``repro.other`` or ``python.other``, so the
reported self times always add up to the profiled total.
"""

import os
import pstats
import sysconfig

#: layers reported by name, each as ``<layer>.self_s`` and ``<layer>.share``
LAYERS = (
    "sim.engine",
    "piconet.piconet",
    "piconet.queues",
    "piconet.batch_kernel",
    "core.pfp",
    "core.gs_manager",
    "core.planning",
    "core.admission",
    "core.wait_bound",
    "schedulers",
    "baseband.interference",
    "baseband.channel",
    "baseband.fec",
    "baseband.segmentation",
    "baseband.packets",
    "traffic.sources",
    "analysis.stats",
    "stdlib.random",
    "repro.other",
    "python.other",
)

_STDLIB = os.path.realpath(sysconfig.get_paths()["stdlib"])


def module_of(filename, funcname, package_dir):
    """``repro`` module (``sim.engine``), ``stdlib.random`` or a
    ``python:`` label for one profiler entry."""
    if filename == "~":
        # C functions: the only ones folded by owner are the RNG's
        if "_random.Random" in funcname:
            return "stdlib.random"
        return "python:builtins"
    path = os.path.realpath(filename)
    if path.startswith(package_dir + os.sep):
        relative = os.path.relpath(path, package_dir)[:-len(".py")]
        parts = relative.split(os.sep)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)
    if path == os.path.join(_STDLIB, "random.py"):
        return "stdlib.random"
    if path.startswith(_STDLIB + os.sep):
        return "python:stdlib"
    return "python:" + os.path.basename(path)


def layer_of(module):
    """The reported layer a module folds into."""
    if module == "sim.events":
        return "sim.engine"
    if module.split(".")[0] == "schedulers":
        return "schedulers"
    if module in LAYERS:
        return module
    if module.startswith("python:"):
        return "python.other"
    return "repro.other"


def code_key(function):
    """The pstats key of a Python function (``None`` if it is gone)."""
    code = getattr(function, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def fold(profiler, package_dir):
    """``(by_module, stats)``: self seconds per module, and the raw stats.

    ``stats`` maps a pstats key to ``(primitive calls, calls, self s,
    cumulative s, callers)``.
    """
    stats = pstats.Stats(profiler).stats
    package_dir = os.path.realpath(package_dir)
    by_module = {}
    for (filename, _line, funcname), entry in stats.items():
        module = module_of(filename, funcname, package_dir)
        by_module[module] = by_module.get(module, 0.0) + entry[2]
    return by_module, stats


def calls(stats, function):
    """How often the profiled job called ``function``."""
    entry = stats.get(code_key(function))
    return entry[1] if entry else 0


def cumulative(stats, function):
    """Seconds the profiled job spent inside ``function`` and its callees."""
    entry = stats.get(code_key(function))
    return entry[3] if entry else 0.0


def layer_table(by_module, wall_s):
    """Per-layer ``self_s``/``share`` metrics plus the trace's coverage.

    ``trace.self_sum_ratio`` is the folded self time over the traced
    wall time; near 1 it shows that no work escaped the table.
    """
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for module, seconds in by_module.items():
        by_layer[layer_of(module)] += seconds
    total = sum(by_layer.values())
    table = {}
    for layer, seconds in by_layer.items():
        table[f"{layer}.self_s"] = seconds
        table[f"{layer}.share"] = seconds / total if total else 0.0
    table["trace.wall_s"] = wall_s
    table["trace.self_sum_ratio"] = total / wall_s if wall_s else 0.0
    return table
