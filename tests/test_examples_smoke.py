"""Smoke-run every script in ``examples/`` so the examples cannot rot.

Each example runs as a subprocess with a tiny simulated duration (every
demo accepts one on its command line), a temporary working directory (so
on-disk caches land in the sandbox) and the repository's ``src`` on
``PYTHONPATH``.  A new example script must be given an argument entry in
:data:`EXAMPLE_ARGS` — the completeness test fails otherwise, so examples
cannot silently drop out of this net either.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES_DIR = REPO_ROOT / "examples"

#: per-script command-line arguments keeping every demo fast enough for
#: the default (non-slow) test tier
EXAMPLE_ARGS = {
    "admission_control_demo.py": ["0.3"],
    "figure4_voice_piconet.py": ["40", "0.4"],
    "lossy_channel_demo.py": ["0.3"],
    "parallel_sweep.py": ["--duration", "0.2", "--workers", "2"],
    "poller_comparison.py": ["0.3"],
    "quickstart.py": ["--duration", "0.4"],
    "timeline_churn_demo.py": ["0.8"],
}


def example_scripts():
    return sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))


def test_every_example_has_smoke_arguments():
    missing = [name for name in example_scripts() if name not in EXAMPLE_ARGS]
    assert not missing, (
        f"examples without an EXAMPLE_ARGS entry (add tiny-duration "
        f"arguments so the smoke test covers them): {missing}")
    orphans = [name for name in EXAMPLE_ARGS if name not in example_scripts()]
    assert not orphans, f"EXAMPLE_ARGS entries without a script: {orphans}"


@pytest.mark.parametrize("script", example_scripts())
def test_example_runs_cleanly(script, tmp_path):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *EXAMPLE_ARGS[script]],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert result.returncode == 0, (
        f"{script} exited {result.returncode}\nstdout:\n{result.stdout}\n"
        f"stderr:\n{result.stderr}")
    assert result.stdout.strip(), f"{script} printed nothing"
