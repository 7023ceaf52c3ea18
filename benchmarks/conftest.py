"""Benchmark harness configuration.

Each benchmark regenerates one row of
``repro.harness.experiments.EXPERIMENTS`` — the same row, with the same
arguments, that ``python -m repro <name>`` runs — and persists it as its
committed ``benchmarks/results/<artefact>.json`` through ``regenerate``,
the only writer there; the ``benchmarks/test_*.py`` files keep only the
paper-shape assertions.  The simulation is deterministic, so a single
round per benchmark is exact; ``pytest-benchmark`` still records the
wall time of the driver.

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
def regenerate(benchmark, scale):
    """Run experiment ``name`` at ``scale``, write its results JSON — the
    rank count, each row as the row's ``record`` turns it into a JSON
    object, and the rendered table — and return the rows."""

    def _run(name: str):
        experiment = EXPERIMENTS[name]
        rows = benchmark.pedantic(
            experiment.run, kwargs=scale, rounds=1, iterations=1
        )
        rendered = experiment.render(rows)
        payload = {
            "nranks": scale["nranks"],
            "rows": [experiment.record(r) for r in rows],
            "rendered": rendered,
        }
        path = RESULTS_DIR / f"{experiment.artefact or name}.json"
        path.write_text(json.dumps(payload, indent=1))
        print()
        print(rendered)
        return rows

    return _run
