import os
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

import latmod
from latmod import catalog


def small_catalog():
    """Named finite lattices used across the suites, all within desk scale."""
    return {
        "C1": catalog.chain(1),
        "C2": catalog.chain(2),
        "C3": catalog.chain(3),
        "C4": catalog.chain(4),
        "C2sq": catalog.c2sq(),
        "B3": catalog.boolean(3),
        "N5": catalog.n5(),
        "M3": catalog.m_k(3),
        "M4": catalog.m_k(4),
        "M5": catalog.m_k(5),
        "witness7": catalog.witness7(),
    }


@pytest.fixture(scope="session")
def lattices():
    return small_catalog()


@pytest.fixture
def run_optimized():
    """Run a script under `python -O`, which strips assert statements, with
    this checkout's latmod importable; returns the words it printed and
    its stderr."""
    src = os.path.dirname(os.path.dirname(latmod.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(script: str):
        out = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(script)],
                             env=env, capture_output=True, text=True, timeout=120)
        return out.stdout.split(), out.stderr

    return run


@pytest.fixture
def traced_peak():
    """Call fn(*args) under tracemalloc; returns its result and the peak
    traced memory in bytes."""
    def run(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
