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

from repro.experiments.golden import (
    GOLDEN_OVERRIDES,
    compare,
    golden_dir,
    golden_json,
    golden_path,
    regenerate,
)
from repro.experiments.registry import experiment_names
from repro.sim.events import LoopWakeup, Wakeup


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
    # heap like a plain wake-up
    monkeypatch.setattr(LoopWakeup, "_fire", Wakeup._fire)
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
