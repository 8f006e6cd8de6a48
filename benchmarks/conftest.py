"""Shared configuration for the benchmark / experiment harness.

Each benchmark regenerates one table or figure of the paper (see the
experiment index in DESIGN.md), prints it, and times a single run via
pytest-benchmark.  Durations are kept short by default so the whole harness
finishes in a couple of minutes; set ``REPRO_BENCH_DURATION`` (seconds of
simulated time per run) for longer, more precise runs — e.g. the paper's
530-second runs.

Every paper-table benchmark takes its rows from the ``sweep_runner``
fixture and prints them with ``format_sweep``, so ``--workers`` and
``--sweep-backend`` (``pytest benchmarks --workers 2 --sweep-backend
batch``) run each table as a parallel sweep.

The ``BENCH_*.json`` artifacts go to a temporary directory unless
``REPRO_BENCH_DIR`` is set, so running the suite never rewrites the
tracked copies at the repository root.  To refresh those, point the
variable at the root: ``REPRO_BENCH_DIR=. python -m pytest benchmarks``.
"""

import os

import pytest


def bench_duration(default: float) -> float:
    """Simulated seconds per run (overridable via REPRO_BENCH_DURATION)."""
    value = os.environ.get("REPRO_BENCH_DURATION")
    return float(value) if value else default


@pytest.fixture(scope="session", autouse=True)
def bench_artifact_dir(tmp_path_factory):
    """Send ``BENCH_*.json`` writes to a temp dir when ``REPRO_BENCH_DIR``
    is unset."""
    from record import BENCH_DIR_ENV
    if os.environ.get(BENCH_DIR_ENV):
        yield
        return
    os.environ[BENCH_DIR_ENV] = str(tmp_path_factory.mktemp("bench"))
    try:
        yield
    finally:
        del os.environ[BENCH_DIR_ENV]


def pytest_addoption(parser):
    parser.addoption(
        "--workers", action="store", type=int, default=1,
        help="worker processes for orchestrator-backed benchmarks")
    parser.addoption(
        "--sweep-backend", action="store", default=None,
        help="execution backend for orchestrator-backed benchmarks "
             "(serial/batch; default derived from --workers)")


@pytest.fixture
def sweep_workers(request):
    """Worker count for orchestrator-backed benchmarks (default 1)."""
    # getoption with a default tolerates the option being unregistered when
    # the whole repo (not just benchmarks/) is collected
    return request.config.getoption("--workers", default=1) or 1


@pytest.fixture
def sweep_backend(request):
    """Backend name for orchestrator-backed benchmarks (default derived)."""
    return request.config.getoption("--sweep-backend", default=None)


@pytest.fixture
def sweep_runner(sweep_workers, sweep_backend):
    """A SweepRunner honoring ``--workers`` / ``--sweep-backend``
    (no cache: benchmarks time work)."""
    from repro.experiments.orchestrator import SweepRunner
    return SweepRunner(max_workers=sweep_workers, backend=sweep_backend)


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner
