import itertools
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import latmod
from latmod import catalog, core, rank


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


# -- oracles: scalar definitions that the library computes by other routes ---

def tuples_of(k):
    """Oracle helper: the elements of a TupleLattice as tuples, by id."""
    return list(zip(*(c.tolist() for c in k.cols)))


def relabeled(lat, seed):
    """The same order with elements renumbered by a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(lat.n)
    return core.lattice_from_leq(lat.leq[np.ix_(perm, perm)])


def close_tuples(base, cols):
    """Oracle for the closure table of rank._closures, key -> key of its
    closure where the table holds the closure's id: close tuples, given
    as columns of base ids, by the scans' fixpoint loop rank._fixpoints,
    which steps only the tuples still moving and compacts them each round.
    Returns the closed columns and each tuple's closure index, in input
    order."""
    out = [np.empty(cols[0].size, dtype=np.int32) for _ in cols]
    index = np.empty(cols[0].size, dtype=np.int32)
    for depth, (done, fixed, cur) in enumerate(rank._fixpoints(base, cols)):
        for o, c in zip(out, cur):
            o[done] = c.compress(fixed)
        index[done] = depth
    return out, index


def counting_step_tables(monkeypatch):
    """Record the (lattice, arity) of each step table rank tabulates, in
    order, in the returned list."""
    calls = []
    step_table = rank._step_table

    def counting(lat, arity):
        calls.append((lat, arity))
        return step_table(lat, arity)

    monkeypatch.setattr(rank, "_step_table", counting)
    return calls


def refuse_allocations(monkeypatch, size):
    """Make np.empty, np.zeros and np.full raise AssertionError on a shape of
    `size` entries or more, so a test sees a key map allocated past a cap."""
    def refusing(alloc):
        def guarded(shape, *args, **kwargs):
            if np.prod(shape, dtype=np.int64) >= size:
                raise AssertionError("a key map was allocated")
            return alloc(shape, *args, **kwargs)
        return guarded

    for name in ("empty", "zeros", "full"):
        monkeypatch.setattr(np, name, refusing(getattr(np, name)))


def is_balanced3(lat, t):
    """Oracle: the three pairwise meets of the triple t coincide."""
    x, y, z = t
    return lat.meet(x, y) == lat.meet(x, z) == lat.meet(y, z)


def is_balanced4(lat, q):
    """Oracle: the six pairwise meets of the quadruple q coincide."""
    return len({lat.meet(a, b) for a, b in itertools.combinations(q, 2)}) == 1


def antichains3(lat):
    """Oracle: every 3-element antichain, as x < y < z in lexicographic
    order."""
    incomp = ~lat.leq & ~lat.leq.T
    return [(x, y, z) for x, y, z in itertools.combinations(range(lat.n), 3)
            if incomp[x, y] and incomp[x, z] and incomp[y, z]]


def interval(lat, a, b):
    """Oracle: the interval [a, b] as a lattice of its own, built from the
    induced order (an interval is a sublattice)."""
    keep = np.flatnonzero(lat.leq[a] & lat.leq[:, b])
    return core.lattice_from_leq(lat.leq[np.ix_(keep, keep)])


# -- oracle: the sorted scan -------------------------------------------------

# orbit sizes under coordinate permutations, by the number of equalities
# x == y, y == z of a sorted triple
_ORBIT_SIZE = np.array([6.0, 3.0, 1.0])


def orbit_sizes(x, y, z):
    """Oracle helper: the orbit size of each sorted triple x <= y <= z under
    permuting its coordinates."""
    return _ORBIT_SIZE[(x == y).astype(np.intp) + (y == z)]


def sorted_scan(lat, cap=None, jobs=1, antichains=False):
    """Oracle for rank's orbit scan (`rank._orbit_scan`): the full scan over
    the sorted triples x <= y <= z, each weighted by its orbit size under
    coordinate permutations, or the scan of the antichains x < y < z, with
    the pairs of each x written out directly, through rank's triple
    generator and scan loop.  `cap` defaults to 3 * height + 1.  Itself
    checked against the scan of all n^3 ordered triples."""
    if antichains:
        keep = np.triu(~lat.leq & ~lat.leq.T, k=1)
        py, pz = (a.astype(np.int32) for a in np.nonzero(keep))
        weight = None
    else:
        keep = None
        py, pz = (a.astype(np.int32) for a in np.triu_indices(lat.n))
        weight = orbit_sizes
    starts = np.searchsorted(py, np.arange(lat.n))
    return rank._scan(lat, rank._cap(lat, cap), jobs, py, pz, starts, keep, weight, None)
