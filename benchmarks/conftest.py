"""Shared fixtures for the paper-reproduction shape assertions.

Every ``bench_*`` module regenerates one table or figure of the paper at the
scale selected by ``REPRO_BENCH_SCALE`` (small | medium | paper; default
small), prints it (visible with ``-s``), and asserts its shape against the
paper.  Run them with::

    REPRO_BENCH_SCALE=small PYTHONPATH=src python -m pytest benchmarks/bench_*.py

EXPERIMENTS.md is written by ``benchmarks/run_all.py`` from the catalogue in
:mod:`repro.bench.report`, not from these tests.
"""

from __future__ import annotations

import pytest

from repro.bench import experiments as exp


@pytest.fixture(scope="session")
def scale() -> exp.BenchScale:
    """The benchmark scale selected via REPRO_BENCH_SCALE."""
    return exp.current_scale()


@pytest.fixture(scope="session")
def emit():
    """Print a rendered report (``name`` labels it in the output)."""

    def _emit(name: str, text: str) -> str:
        """Echo one labelled artifact and return it."""
        print(f"\n[{name}]\n{text}\n")
        return text

    return _emit


@pytest.fixture(scope="session")
def fig3_points(scale):
    """Figure 3's locality sweep, shared by the 3a and 3b benches."""
    return exp.figure_3(scale)


@pytest.fixture
def once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are long deterministic simulations; statistical rounds
    would triple the wall time without adding information.
    """

    def _once(fn):
        """Execute ``fn`` once and return its result."""
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return _once
