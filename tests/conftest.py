import itertools
import os
import subprocess
import sys
import textwrap
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import latmod
from latmod import catalog, congruence, construct, core, rank
from latmod.errors import SizeLimitExceeded


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


def flat_key(k, op, a, b):
    """Oracle for TupleLattice._key: the keys of the componentwise
    op(a_i, b_i), op "meet" or "join", of the elements a and b of the tuple
    lattice k, broadcast, built entry by entry through the base's operation
    (key *= n, key += op(a_i, b_i) per coordinate), the rule the weighted
    tables replaced."""
    base, first = k.base, k.cols[0]
    apply = getattr(base, op)
    key = np.zeros(np.broadcast_shapes(np.shape(first[a]), np.shape(first[b])),
                   dtype=np.int32)
    for c in k.cols:
        key *= base.n
        key += apply(c[a], c[b])
    return key


def row_or_closure(c):
    """Oracle for core.from_covers' order: the reflexive-transitive closure
    of the CoverList c by or-ing numpy rows, each element's row that of its
    upper covers, in reverse topological order; None on a cycle."""
    n = c.size
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for lo, hi in c.covers:
        succ[lo].append(hi)
        indeg[hi] += 1
    queue, topo = [v for v in range(n) if indeg[v] == 0], []
    while queue:
        v = queue.pop()
        topo.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(topo) != n:
        return None
    leq = np.eye(n, dtype=bool)
    for v in reversed(topo):
        for w in succ[v]:
            leq[v] |= leq[w]
    return leq


def isotone_maps_backtrack(poset_leq, target):
    """Oracle for core.isotone_maps, the recursive backtracker it replaced:
    every order-preserving map from the poset into the target, as a list of
    value tuples, assigning along the stable sort of the down-set sizes and
    trying the target's ids in ascending order at each element."""
    p = poset_leq.shape[0]
    order = sorted(range(p), key=lambda e: int(poset_leq[:, e].sum()))
    out, values = [], [0] * p

    def bt(k):
        if k == p:
            out.append(tuple(values))
            return
        e = order[k]
        for v in range(target.n):
            if all(target.leq[values[d], v] for d in order[:k] if poset_leq[d, e]) \
                    and all(target.leq[v, values[d]] for d in order[:k] if poset_leq[e, d]):
                values[e] = v
                bt(k + 1)

    bt(0)
    return out


def join_homs_by_codes(a, b, block=1 << 18):
    """Oracle for tensor.all_join_homs, the route it replaced: every one of
    the |B|^|J(A)| assignments on the join-irreducibles, in blocks of
    base-|B| codes, propagated as h(x) = meet over the irreducibles below
    x (B's top at A's zero) and kept when it turns every join of nonzero
    elements into the meet; sorted, duplicates dropped."""
    ji = core.join_irreducibles(a)
    below = [np.flatnonzero(a.leq[ji, x]).tolist() for x in range(a.n)]
    nonzero = [x for x in range(a.n) if x != a.bottom]
    joins = [(x0, x1, a.join(x0, x1)) for i, x0 in enumerate(nonzero)
             for x1 in nonzero[i + 1:]]
    total = b.n ** len(ji)
    step = max(1, block // a.n)
    found = []
    for start in range(0, total, step):
        code = np.arange(start, min(total, start + step))
        assign = [code // b.n ** (len(ji) - 1 - k) % b.n for k in range(len(ji))]
        values = np.empty((code.size, a.n), dtype=np.intp)
        for x in range(a.n):
            v = np.full(code.size, b.top, dtype=np.intp)
            for k in below[x]:
                v = b.meet(v, assign[k])
            values[:, x] = v
        ok = np.ones(code.size, dtype=bool)
        for x0, x1, xj in joins:
            ok &= values[:, xj] == b.meet(values[:, x0], values[:, x1])
        found.extend(map(tuple, values[ok].tolist()))
    return sorted(set(found))


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


# -- oracles: the numpy routes of congruence that Python-int bitsets replaced --

def numpy_classes(dep):
    """Oracle for congruence._classes, the numpy route it replaced: D,
    without its diagonal, closed in place by Warshall's algorithm, one
    column test per pivot and one row update of the rows through it; the
    classes of D* meet its transpose read off a lower-triangle test, their
    order sorted stably by the number of classes below each."""
    for p in range(len(dep)):
        via = np.flatnonzero(dep[:, p])
        if via.size:
            dep[via] |= dep[p]
    np.fill_diagonal(dep, True)
    same = dep & dep.T
    first = np.flatnonzero(~np.tril(same, -1).any(axis=1))  # each class's least j
    gen = np.nonzero(same[:, first])[1]
    below = dep[np.ix_(first, first)]
    order = np.argsort(below.sum(axis=0), kind="stable")
    below = below[np.ix_(order, order)]
    np.fill_diagonal(below, False)
    return np.argsort(order)[gen], below


def numpy_down_sets(below):
    """Oracle for congruence._down_sets, the numpy route it replaced: bool
    rows grown one gather, test and concatenation per generator, with the
    same children and the same SizeLimitExceeded past CON_SIZE_CAP."""
    bits = np.zeros((1, len(below)), dtype=bool)
    children = []
    for t in range(len(below)):
        parents = np.flatnonzero(bits[:, below[:, t]].all(axis=1))
        if len(bits) + parents.size > congruence.CON_SIZE_CAP:
            raise SizeLimitExceeded(f"more than {congruence.CON_SIZE_CAP} congruences")
        child = np.full(len(bits), -1, dtype=np.int32)
        child[parents] = np.arange(len(bits), len(bits) + parents.size)
        children.append(child)
        grown = bits[parents]
        grown[:, t] = True
        bits = np.concatenate([bits, grown])
    return bits, children


def eager_con_lattice(lat):
    """Oracle for congruence.all_congruences, the eager route it replaced:
    the generators through `numpy_classes`, their down-sets through
    `numpy_down_sets`, and the order and tables of Con L built at once.
    Returns `ids` and `lattice` as a ConLattice has them."""
    if isinstance(lat, construct.TupleLattice):
        ji = np.array(core.join_irreducibles(lat.base), dtype=np.intp)
        lower = np.array([lat.base.lower_covers(j)[0] for j in ji], dtype=np.intp)
        dep = congruence._copy_dependency(lat, ji, lower)
        ji = congruence._copies(lat, ji)
    else:
        ji = np.array(core.join_irreducibles(lat), dtype=np.intp)
        dep = congruence._dependency(lat, ji)
    gen, below = numpy_classes(dep)
    bits, children = numpy_down_sets(below)
    ids = congruence._first_occurrence(congruence._block_roots(lat, ji, bits[:, gen]))
    counts = ids.max(axis=1) + 1
    perm = np.lexsort(np.vstack([ids.T[::-1], counts]))  # by block count, then labels
    rank = np.empty(len(perm), dtype=np.int32)
    rank[perm] = np.arange(len(perm))
    meet = rank[congruence._down_set_index(children, bits, np.logical_and)][np.ix_(perm, perm)]
    join = rank[congruence._down_set_index(children, bits, np.logical_or)][np.ix_(perm, perm)]
    names = [f"con{i}/{c}b" for i, c in enumerate(counts[perm].tolist())]
    leq = meet == np.arange(len(perm))[:, None]
    return SimpleNamespace(ids=ids[perm], lattice=core.FiniteLattice(
        leq, meet, join, names=names, name=f"Con({lat.name or '?'})"))


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
