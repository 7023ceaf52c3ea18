"""Benchmark harness configuration.

Each paper/storage benchmark regenerates one row of
``repro.harness.experiments.EXPERIMENTS`` — the same row, with the same
arguments, that ``python -m repro <name>`` runs — and persists it as its
committed ``benchmarks/results/<artefact>.json``.  The simulation is
deterministic, so a single round per benchmark is exact;
``pytest-benchmark`` still records the wall time of the driver.

The ``scale`` fixture is the only place the scale is set: ``REPRO_BENCH_RANKS``
ranks (default 128; the paper used 512) with ``REPRO_BENCH_RPN`` ranks
per node (default 8), passed to the drivers as arguments.

Run with:  pytest benchmarks/ --benchmark-only
"""

import json
import os
import pathlib

import pytest

from repro.harness.experiments import EXPERIMENTS

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def pytest_configure(config):
    RESULTS_DIR.mkdir(exist_ok=True)


@pytest.fixture
def scale():
    """The driver scale keywords ``pytest benchmarks/`` runs at."""
    return dict(
        nranks=int(os.environ.get("REPRO_BENCH_RANKS", 128)),
        ranks_per_node=int(os.environ.get("REPRO_BENCH_RPN", 8)),
    )


@pytest.fixture
def record_rows(scale):
    """Persist a benchmark's table rows as JSON under benchmarks/results/
    (consumed by tools/generate_experiments_md.py)."""

    def _write(name: str, rows, rendered: str):
        payload = {
            "nranks": scale["nranks"],
            "rows": rows,
            "rendered": rendered,
        }
        (RESULTS_DIR / f"{name}.json").write_text(json.dumps(payload, indent=1))
        print()
        print(rendered)

    return _write


@pytest.fixture
def regenerate(benchmark, record_rows, scale):
    """Run experiment ``name`` at ``scale``, persist its rows (each
    turned into a JSON object by ``record``) with its rendered table as
    the row's artefact, and return the rows."""

    def _run(name: str, record):
        experiment = EXPERIMENTS[name]
        rows = benchmark.pedantic(
            experiment.run, kwargs=scale, rounds=1, iterations=1
        )
        record_rows(
            experiment.artefact or name,
            [record(r) for r in rows],
            experiment.render(rows),
        )
        return rows

    return _run
