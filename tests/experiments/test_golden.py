"""Golden-row regression tests.

Every registered experiment has its golden sweep (a small, deterministic
configuration — see :mod:`repro.experiments.golden`) pinned as a JSON
fixture under ``tests/golden/``.  A refactor that perturbs any aggregated
row fails here byte-for-byte; an *intentional* behaviour change refreshes
the fixtures with ``python -m repro.experiments regen-golden`` and commits
them alongside the change.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from heap_path import heap_path_fire
from repro.experiments.golden import (
    GOLDEN_OVERRIDES,
    compare,
    golden_dir,
    golden_json,
    golden_path,
    regenerate,
)
from repro.experiments.orchestrator import SweepResult, format_sweep
from repro.experiments.registry import experiment_names
from repro.sim.events import LoopWakeup


def test_every_registered_experiment_has_a_fixture():
    missing = [name for name in experiment_names()
               if not golden_path(name).exists()]
    assert not missing, (
        f"run `python -m repro.experiments regen-golden` to create fixtures "
        f"for: {missing}")


def test_no_orphan_fixtures():
    orphans = [path.stem for path in golden_dir().glob("*.json")
               if path.stem not in experiment_names()]
    assert not orphans, f"fixtures without a registered experiment: {orphans}"


def test_simulation_experiments_have_shrunken_golden_configs():
    # every simulation experiment must pin a small golden configuration so
    # the fixture set stays fast enough for the default test tier
    for name, overrides in GOLDEN_OVERRIDES.items():
        if overrides:
            assert overrides.get("duration_seconds", 1.0) <= 2.0, name


@pytest.mark.parametrize("experiment", experiment_names())
def test_golden_rows_are_byte_identical(experiment):
    diff = compare(experiment)
    assert diff["actual"] == diff["expected"], (
        f"{experiment}: aggregated rows diverged from tests/golden/"
        f"{experiment}.json — if the change is intentional, refresh with "
        f"`python -m repro.experiments regen-golden {experiment}`")


@pytest.mark.parametrize("experiment", experiment_names())
def test_golden_rows_are_byte_identical_without_fast_path(experiment,
                                                          monkeypatch):
    # the master's heap bypass must be invisible in the results: the same
    # fixtures hold byte-for-byte when every master re-arms through the
    # heap after every step
    monkeypatch.setattr(LoopWakeup, "_fire", heap_path_fire)
    diff = compare(experiment)
    assert diff["actual"] == diff["expected"], (
        f"{experiment}: the heap path diverged from the golden fixture — "
        f"the master's heap bypass and the heap are no longer "
        f"byte-identical")


def test_fixtures_parse_as_json_with_rows():
    for path in sorted(golden_dir().glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["experiment"] == path.stem
        assert isinstance(payload["rows"], list) and payload["rows"]


def test_format_sweep_renders_every_fixture():
    # rendering only: each fixture's rows become a SweepResult without
    # running a simulation, and every metric must surface as a column; a
    # metric named like a point key but holding other values (the
    # sco_comparison labels) gets its own column instead of being hidden
    paths = sorted(golden_dir().glob("*.json"))
    assert len(paths) == len(experiment_names())
    clashes = {}
    for path in paths:
        payload = json.loads(path.read_text(encoding="utf-8"))
        header, table = format_sweep(SweepResult(**payload)).split("\n\n", 1)
        assert header.startswith(f"{path.stem} — "), header
        columns = table.splitlines()[0].split()
        missing = {key for row in payload["rows"] for key in row["mean"]
                   if key not in columns}
        assert not missing, f"{path.stem}: no column for {sorted(missing)}"
        for row in payload["rows"]:
            for key, value in row["mean"].items():
                if key in row["point"] and value != row["point"][key]:
                    clashes.setdefault(path.stem, set()).add(key)
                    assert f"{key} (result)" in table.splitlines()[0]
                    assert str(value) in table
    assert clashes == {"sco_comparison": {"configuration"}}


def test_regenerate_writes_requested_subset(tmp_path):
    written = regenerate(["admission_capacity"], directory=tmp_path)
    assert [p.name for p in written] == ["admission_capacity.json"]
    assert written[0].read_text(encoding="utf-8") == \
        golden_json("admission_capacity")


def test_regen_golden_cli_refreshes_into_env_directory(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "regen-golden",
         "admission_capacity"],
        capture_output=True, text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
             "REPRO_GOLDEN_DIR": str(tmp_path)},
        cwd=Path(__file__).resolve().parents[2])
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "admission_capacity.json").exists()
