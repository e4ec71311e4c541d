"""Shared fixtures for the figure/table regeneration benchmarks.

Each benchmark runs its experiment exactly once (``pedantic`` with one
round — these are minutes-long simulations, not microseconds), renders the
paper artefact as ASCII, and saves it under ``results/`` so EXPERIMENTS.md
can cite the regenerated numbers.

Scale selection: ``REPRO_SCALE`` env var (smoke/default/paper), default
``default``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments import get_scale

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def scale():
    """The experiment scale every benchmark runs at."""
    return get_scale()


@pytest.fixture(scope="session")
def save_result():
    """Callable persisting a rendered experiment under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")

    return _save


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
