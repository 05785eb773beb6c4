import itertools
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    antichains3,
    close_tuples,
    counting_step_tables,
    interval,
    is_balanced3,
    is_balanced4,
    orbit_sizes,
    sorted_scan,
)
from latmod import catalog, construct, core, rank, symbolic
from latmod.errors import ArgumentOutOfRange, RankExceedsCap, VerificationFailed
from latmod.rank import Quadruple, Triple, closure3, step3, step4


# -- oracle: the scalar step maps ------------------------------------------

def scalar_step3(lat, t):
    """Oracle for rank.step3: the triple step map written out one
    coordinate at a time."""
    x, y, z = t
    return Triple(lat.join(x, lat.meet(y, z)),
                  lat.join(y, lat.meet(x, z)),
                  lat.join(z, lat.meet(x, y)))


def scalar_step4(lat, q):
    """Oracle for rank.step4: each coordinate joined with the pairwise
    meets of the other three, pair by pair."""
    out = []
    for i in range(4):
        rest = [q[k] for k in range(4) if k != i]
        v = q[i]
        for a in range(3):
            for b in range(a + 1, 3):
                v = lat.join(v, lat.meet(rest[a], rest[b]))
        out.append(v)
    return Quadruple(*out)


def scalar_closure(lat, t, cap=None):
    """Oracle: the scalar step iteration of a triple or a quadruple."""
    step = scalar_step3 if len(t) == 3 else scalar_step4
    return rank._closure(lat, t, step, rank._cap(lat, cap))


def balanced_triples(lat):
    return [t for t in itertools.product(lat.elements(), repeat=3)
            if is_balanced3(lat, t)]


def least_balanced_majorant(lat, t):
    """Independent oracle: componentwise minimum of all balanced triples
    above t (the set is nonempty and closed under componentwise meet)."""
    above = [s for s in balanced_triples(lat)
             if all(lat.le(a, b) for a, b in zip(t, s))]
    best = above[0]
    for s in above[1:]:
        best = tuple(lat.meet(a, b) for a, b in zip(best, s))
    assert is_balanced3(lat, best)
    return best


def test_step3_fixed_points_are_balanced(lattices):
    for lat in lattices.values():
        for t in itertools.product(lat.elements(), repeat=3):
            assert (step3(lat, t) == t) == is_balanced3(lat, t)


def test_step3_extensive_isotone_equivariant(lattices):
    for name in ("N5", "M4", "witness7", "C2sq"):
        lat = lattices[name]
        triples = list(itertools.product(lat.elements(), repeat=3))
        for t in triples:
            out = step3(lat, t)
            assert all(lat.le(a, b) for a, b in zip(t, out))
            for perm in itertools.permutations(range(3)):
                permuted = tuple(t[i] for i in perm)
                assert step3(lat, permuted) == tuple(out[i] for i in perm)
        for t in triples[:: 17]:
            for s in triples[:: 23]:
                if all(lat.le(a, b) for a, b in zip(t, s)):
                    ot, os_ = step3(lat, t), step3(lat, s)
                    assert all(lat.le(a, b) for a, b in zip(ot, os_))


def test_closure3_least_balanced_majorant_oracle(lattices):
    for name, lat in lattices.items():
        if lat.n > 12:
            continue
        for t in itertools.product(lat.elements(), repeat=3):
            trace = closure3(lat, t)
            assert trace.stabilized
            assert trace.final == least_balanced_majorant(lat, t)


def test_trace_monotone_and_absorbing(lattices):
    lat = lattices["witness7"]
    for t in itertools.product(lat.elements(), repeat=3):
        trace = closure3(lat, t)
        for prev, cur in zip(trace.iterates, trace.iterates[1:]):
            assert all(lat.le(a, b) for a, b in zip(prev, cur))
        s = trace.stabilization_index
        assert trace.iterates[s] == trace.iterates[s + 1]
        assert step3(lat, trace.final) == trace.final


def test_gamma_coordinate_equivalence(lattices):
    """The single-coordinate identity and full-tuple stabilization agree:
    the max index at which any first coordinate still moves equals the max
    full stabilization index."""
    for name in ("C3", "N5", "M3", "M4", "witness7", "C2sq"):
        lat = lattices[name]
        full_max = 0
        first_max = 0
        for t in itertools.product(lat.elements(), repeat=3):
            trace = closure3(lat, t)
            full_max = max(full_max, trace.stabilization_index)
            firsts = [it[0] for it in trace.iterates]
            moving = [k for k in range(len(firsts) - 1) if firsts[k] != firsts[k + 1]]
            first_max = max(first_max, moving[-1] + 1 if moving else 0)
        assert full_max == first_max


def test_satisfies_gamma_examples(lattices):
    # L satisfies gamma_n iff its rank is at most n; on failure the witness
    # is the lexicographically first slowest triple
    n5 = lattices["N5"]
    rep = rank.rank_report(n5)
    assert not rep.rank <= 1 and rep.rank <= 2
    assert sorted(n5.names[e] for e in rep.witness) == ["a", "b", "c"]
    for name in ("C4", "B3", "C2sq"):
        assert rank.rank_report(lattices[name]).rank <= 1


def test_chain_triples_stabilize_fast():
    lat = catalog.chain(4)
    for x in range(4):
        for y in range(x, 4):
            for z in range(y, 4):
                trace = closure3(lat, (x, y, z))
                assert trace.stabilization_index <= 1
                assert trace.final == (y, y, z)


def test_pentagon_iteration():
    n5 = catalog.n5()
    b, a, c = n5.index_of("b"), n5.index_of("a"), n5.index_of("c")
    trace = closure3(n5, Triple(b, a, c))
    assert trace.iterates[1][0] == b      # one step leaves the bottom entry
    assert trace.iterates[2][0] == a      # the second step lifts it
    assert rank.modularity_rank(n5) == 2


def test_witness7_failing_triple():
    w7 = catalog.witness7()
    t = Triple(w7.index_of("n(1,0)"), w7.index_of("(2,0)"), w7.index_of("(0,1)"))
    trace = closure3(w7, t)
    firsts = [w7.names[it[0]] for it in trace.iterates[:4]]
    assert firsts == ["n(1,0)", "n(1,0)", "n(1,0)", "(1,1)"]
    assert rank.modularity_rank(w7) == 3


def test_non_antichain_triples_stabilize_by_two(lattices):
    for lat in lattices.values():
        anti = set(antichains3(lat))
        for t in itertools.product(lat.elements(), repeat=3):
            if tuple(sorted(set(t))) in anti:
                continue
            assert closure3(lat, t).stabilization_index <= 2


def test_rank_product_law(lattices):
    pairs = [("N5", "C3"), ("N5", "witness7"), ("M3", "M4"), ("C2sq", "N5")]
    for a, b in pairs:
        prod = core.direct_product(lattices[a], lattices[b])
        assert rank.modularity_rank(prod) == max(
            rank.modularity_rank(lattices[a]), rank.modularity_rank(lattices[b]))


def test_rank_sublattice_monotone():
    # intervals are sublattices with induced operations
    w7 = catalog.witness7()
    full = rank.modularity_rank(w7)
    for a in w7.elements():
        for b in w7.elements():
            if w7.le(a, b):
                assert rank.modularity_rank(interval(w7, a, b)) <= full


def rank_route_lattices():
    """Every lattice with at most 8 elements, 300 3x3 and 20 6x6 random
    (C1)-(C4) grids, the ladders and M3[M4..M7]."""
    for n in range(1, 9):
        yield from catalog.enumerate_lattices(n)
    yield from (catalog.random_c1c4(s) for s in range(300))
    yield from (catalog.random_c1c4(s, 6, 6) for s in range(20))
    yield from (catalog.l_family(n) for n in range(1, 5))
    yield from (construct.m3_of(catalog.m_k(k)).lattice for k in range(4, 8))


def capped(route, lat, cap):
    try:
        return route(lat, cap)
    except RankExceedsCap:
        return RankExceedsCap


def test_modularity_rank_is_the_full_scan_rank():
    """Oracle for modularity_rank's one route (antichains above index 1,
    modularity below): the full scan's rank max(1, largest index), and at
    every cap up to the rank, both raise RankExceedsCap or agree."""
    def full(lat, cap=None):
        return max(1, rank.full_triple_scan(lat, cap).max_index)

    for lat in rank_route_lattices():
        want = full(lat)
        assert rank.modularity_rank(lat) == want, lat.name
        for cap in range(want + 1):
            assert capped(rank.modularity_rank, lat, cap) == capped(full, lat, cap), \
                (lat.name, cap)


def test_scans_without_a_cap_read_no_height():
    """No tuple moves 3 * height + 1 times, so without a cap the scans run
    to the fixpoint: on fresh copies of lattices with at most 22 elements
    (the table route), modularity_rank and rank_report build no cover
    index, and agree with the originals."""
    for lat in (catalog.n5(), catalog.witness7(), catalog.l_family(2), catalog.m_k(20),
                catalog.chain(22), catalog.random_c1c4(0)):
        fresh = core.FiniteLattice(lat.leq, lat.meet_table, lat.join_table,
                                   names=lat.names, name=lat.name)
        assert rank.modularity_rank(fresh) == rank.modularity_rank(lat), lat.name
        assert rank.rank_report(fresh) == rank.rank_report(lat), lat.name
        assert fresh.n <= 22 and fresh._covers is None, lat.name


SCANS = (rank.full_triple_scan, rank.antichain_rank_scan)


def sorted_route(antichains):
    """The sorted-scan oracle (conftest.sorted_scan) as a scan."""
    return lambda lat, cap=None, jobs=1: sorted_scan(lat, cap, jobs, antichains)


def orbit_route(antichains, aut=True):
    """rank's orbit scan as a scan, whichever route the lattice's size
    picks, under Aut(L) or, with aut=False, with no generators."""
    def scan(lat, cap=None, jobs=1):
        gens = lat.automorphisms().generators if aut else np.empty((0, lat.n), dtype=np.int32)
        keep = ~lat.leq & ~lat.leq.T if antichains else None
        return rank._orbit_scan(lat, rank._cap(lat, cap), jobs, keep, gens)
    return scan


SORTED = (sorted_route(False), sorted_route(True))
# the orbit scan under the trivial group, which steps the sorted triples
TRIVIAL = (orbit_route(False, aut=False), orbit_route(True, aut=False))


def test_scan_jobs_deterministic():
    lat = construct.m3_of(catalog.m_k(4)).lattice
    for scan in SCANS:
        one = scan(lat, jobs=1)
        assert scan(lat, jobs=2) == one and scan(lat, jobs=3) == one


def test_scan_batch_queue_gives_the_same_result_at_every_job_count(monkeypatch):
    """Both orbit scans under Aut(L) and under the trivial group, their
    batches taken by two or three threads, against one job: the merge does
    not depend on which thread scans which batch, and with threads switched
    often no batch is lost or taken twice (the triple counts would
    differ)."""
    seen = record_pools(monkeypatch)
    monkeypatch.setattr(rank.os, "cpu_count", lambda: 3)
    m3m4 = construct.m3_of(catalog.m_k(4)).lattice
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for lat, batch in ((catalog.n5(), 7), (catalog.witness7(), 7), (m3m4, 1_000),
                           (relabeled(m3m4, random.Random(3)), 1_000)):
            monkeypatch.setattr(rank, "_BATCH", batch)
            for aut in (True, False):
                for antichains in (False, True):
                    scan = orbit_route(antichains, aut)
                    one = scan(lat, jobs=1)
                    assert scan(lat, jobs=2) == one and scan(lat, jobs=3) == one
    finally:
        sys.setswitchinterval(interval)
    assert set(seen) == {2, 3}


def test_scan_lists_no_batch_far_ahead_of_the_threads(monkeypatch):
    """Each thread takes the next batch when it has finished its last, so
    when a batch's scan starts, at most the two batches peeked to decide on
    threads and one a thread has just taken wait besides it.  A pool
    mapped over the batch generator would list all of them first."""
    monkeypatch.setattr(rank.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(rank, "_BATCH", 1_000)
    lock = threading.Lock()
    listed, leads = [0], []
    triples, scan_batch = rank._triples, rank._scan_batch

    def listing(*args, **kwargs):
        for batch in triples(*args, **kwargs):
            with lock:
                listed[0] += 1
            yield batch

    def scanning(*args, **kwargs):
        with lock:
            leads.append(listed[0] - len(leads) - 1)
        return scan_batch(*args, **kwargs)

    monkeypatch.setattr(rank, "_triples", listing)
    monkeypatch.setattr(rank, "_scan_batch", scanning)
    lat = construct.m3_of(catalog.m_k(4)).lattice
    for scan in TRIVIAL:
        for jobs, most in ((1, 0), (2, 2)):
            listed[0] = 0
            leads.clear()
            scan(lat, jobs=jobs)
            assert len(leads) > 50 and max(leads) <= most


# -- oracle: the per-x submatrix antichain enumerator ---------------------

def row_starts(py, n):
    """The sorted triples' start offsets: x's pairs are those with y >= x."""
    return np.searchsorted(py, np.arange(n))


def incomparable_pairs(lat):
    """The arguments rank.antichain_rank_scan hands rank._triples: the
    strictly upper incomparability matrix and its pairs, int32, row-major."""
    u = np.triu(~lat.leq & ~lat.leq.T, k=1)
    py, pz = (a.astype(np.int32) for a in np.nonzero(u))
    return u, py, pz


def submatrix_antichain_batches(lat, lo, hi):
    """Oracle for rank._triples under the antichain mask: for each x, the
    pairs y < z of the submatrix of the incomparability matrix over the ys
    above x and incomparable to it, cut into batches of exactly
    rank._BATCH (the last may be shorter)."""
    if lo == hi:
        return
    incomp = ~lat.leq & ~lat.leq.T
    idx = np.arange(lat.n)
    bx, by, bz = [], [], []
    for x in range(lo, hi):
        ys = np.flatnonzero(incomp[x] & (idx > x))
        yy, zz = np.nonzero(np.triu(incomp[np.ix_(ys, ys)], k=1))
        bx.append(np.full(yy.size, x, dtype=np.int32))
        by.append(ys[yy].astype(np.int32))
        bz.append(ys[zz].astype(np.int32))
    cols = [np.concatenate(c) for c in (bx, by, bz)]
    batch = rank._BATCH
    for start in range(0, cols[0].size, batch):
        yield tuple(c[start:start + batch] for c in cols)


def assert_same_batches(lat, lo=0, hi=None):
    hi = lat.n if hi is None else hi
    u, py, pz = incomparable_pairs(lat)
    got = list(rank._triples(py, pz, row_starts(py, lat.n), lo, hi, rank._BATCH, keep=u))
    want = list(submatrix_antichain_batches(lat, lo, hi))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    return len(got)


def test_pair_list_batches_match_submatrix_oracle_on_small_lattices(monkeypatch):
    small = [lat for n in range(1, 8) for lat in catalog.enumerate_lattices(n)]
    assert len(small) == 371
    whole = sum(assert_same_batches(lat) for lat in small)
    # batches of one or two antichains: every boundary rule is exercised
    for batch in (1, 2):
        monkeypatch.setattr(rank, "_BATCH", batch)
        assert sum(assert_same_batches(lat) for lat in small) > whole


def test_pair_list_batches_match_submatrix_oracle_on_m3(monkeypatch):
    rng = random.Random(11)
    for k in (4, 6):
        lat = construct.m3_of(catalog.m_k(k)).lattice
        for case in (lat, relabeled(lat, rng), relabeled(lat, rng)):
            assert assert_same_batches(case) >= 1
            for x in rng.sample(range(case.n), 3):  # rows, as the orbit scan's witness takes
                assert_same_batches(case, x, x + 1)
    monkeypatch.setattr(rank, "_BATCH", 5_000)
    lat = construct.m3_of(catalog.m_k(6)).lattice
    assert assert_same_batches(lat) > 1
    assert assert_same_batches(relabeled(lat, rng)) > 1


def test_step4_and_closure4(lattices):
    for name in ("C2sq", "M4", "N5"):
        lat = lattices[name]
        quads = list(itertools.product(lat.elements(), repeat=4))
        for q in quads:
            out = step4(lat, q)
            assert all(lat.le(a, b) for a, b in zip(q, out))
            assert (out == q) == is_balanced4(lat, q)
    # distributive: one step always suffices
    b3 = lattices["B3"]
    for q in itertools.product(b3.elements(), repeat=4):
        assert rank._closure(b3, q, step4, rank._cap(b3, None)).stabilization_index <= 1
    x = lattices["M4"].index_of("a")
    assert step4(lattices["M4"], Quadruple(x, x, x, x)) == (x, x, x, x)


# -- the vectorized engine against the scalar step maps -------------------

ENGINE_LATTICES = ("C2sq", "M4", "N5", "witness7")


def engine_closures(lat, cols, cap=None):
    """Stabilization index and closure of every tuple in the batch, in
    batch order, by rank._fixpoints."""
    stab = np.zeros(cols[0].size, dtype=np.int32)
    final = np.zeros((cols[0].size, len(cols)), dtype=np.int32)
    for k, (done, fixed, cur) in enumerate(rank._fixpoints(lat, cols, cap)):
        stab[done] = k
        final[done] = np.stack([c[fixed] for c in cur], axis=1)
    return stab, final


def engine_stab_indices(lat, cols, cap):
    return engine_closures(lat, cols, cap)[0]


# double-ladder elements for the step-map comparison: bounds, the side
# element, rails, rungs, both climbing ladders and the descending chains
FIG2_SAMPLE = (symbolic.BOT, symbolic.TOP, symbolic.Y0, ("c", 1), ("d", 0), ("w", 1),
               ("x", 0), ("x", 2), ("z", 1), ("s", 2), ("u", 1), ("v", 3))


def test_step_columns_match_scalar_steps(lattices):
    """The one step map against the scalar oracle bodies: on id arrays and
    on single ids (which give ints) of finite lattices, on the quadruples
    of the parity-pair iteration and on triples of the double ladder."""
    for name in ENGINE_LATTICES:
        lat = lattices[name]
        for arity, oracle in ((3, scalar_step3), (4, scalar_step4)):
            tuples = list(itertools.product(lat.elements(), repeat=arity))
            want = [list(oracle(lat, t)) for t in tuples]
            cols = list(np.array(tuples, dtype=np.int32).T)
            assert np.array(rank._step_columns(lat, cols)).T.tolist() == want
            singles = [rank._step_columns(lat, t) for t in tuples]
            assert singles == want
            assert all(type(v) is int for out in singles for v in out)
    dhw = symbolic.dhw_lattice()
    seq = [symbolic.dhw_base_quadruple()]
    for _ in range(16):
        assert rank._step_columns(dhw, seq[-1]) == list(scalar_step4(dhw, seq[-1]))
        seq.append(scalar_step4(dhw, seq[-1]))
    assert symbolic.dhw_adjustment(16) == seq
    fig2 = symbolic.fig2_lattice()
    for t in itertools.product(FIG2_SAMPLE, repeat=3):
        assert rank._step_columns(fig2, t) == list(scalar_step3(fig2, t))
    trace = symbolic.fig2_divergence(8)
    assert trace.iterates == scalar_closure(fig2, trace.initial, cap=8).iterates


def test_finite_lattice_operations_on_id_arrays(lattices):
    """FiniteLattice meet and join broadcast id arrays to the table
    entries, and give an int for two ints."""
    for lat in lattices.values():
        ids = np.arange(lat.n)
        for op, table in ((lat.meet, lat.meet_table), (lat.join, lat.join_table)):
            assert np.array_equal(op(ids[:, None], ids), table)
            rev = ids[::-1].astype(np.int32)
            assert np.array_equal(op(rev, rev[:, None]), table[::-1, ::-1].T)
            assert np.array_equal(op(ids, lat.top), table[:, lat.top])
            assert np.array_equal(op(np.int32(lat.bottom), ids), table[lat.bottom])
            got = op(lat.n - 1, 0)
            assert type(got) is int and got == table[-1, 0]


def test_fixpoints_read_only_the_operations():
    """`_fixpoints` on M3[L] through its key maps gives the indices and
    closures it gives through M3[L]'s tables, for M3 of every lattice with
    at most 6 elements: all triples of the small ones, 4,000 seeded
    triples of the others."""
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for base in catalog.enumerate_lattices(n):
            k = construct.m3_of(base)
            count = len(k)
            if count ** 3 <= 4_000:
                cols = [g.ravel().astype(np.int32) for g in
                        np.meshgrid(*[np.arange(count)] * 3, indexing="ij")]
            else:
                cols = list(rng.integers(0, count, size=(3, 4_000), dtype=np.int32))
            (s1, f1), (s2, f2) = engine_closures(k, cols), engine_closures(k.lattice, cols)
            assert np.array_equal(s1, s2) and np.array_equal(f1, f2), k.name


def test_fixpoint_loop_matches_scalar_closures(lattices):
    for name in ENGINE_LATTICES:
        lat = lattices[name]
        for arity in (3, 4):
            tuples = list(itertools.product(lat.elements(), repeat=arity))
            cols = list(np.array(tuples, dtype=np.int32).T)
            stab, final = engine_closures(lat, cols, cap=3 * lat.height() + 1)
            traces = [scalar_closure(lat, t) for t in tuples]
            assert stab.tolist() == [tr.stabilization_index for tr in traces]
            assert final.tolist() == [list(tr.final) for tr in traces]


def test_negative_cap_rejected(lattices):
    n5 = lattices["N5"]
    for call in (lambda: closure3(n5, (0, 0, 0), cap=-1),
                 lambda: scalar_closure(n5, (0, 0, 0, 0), cap=-1),
                 lambda: rank.full_triple_scan(n5, cap=-1),
                 lambda: rank.antichain_rank_scan(n5, cap=-1),
                 lambda: rank.modularity_rank(n5, cap=-1)):
        with pytest.raises(ArgumentOutOfRange):
            call()


def test_scan_cap_bounds_stabilization(lattices):
    w7 = lattices["witness7"]
    assert rank.full_triple_scan(w7, cap=3).max_index == 3
    for scan in (rank.full_triple_scan, rank.antichain_rank_scan):
        with pytest.raises(RankExceedsCap):
            scan(w7, cap=2)
    with pytest.raises(RankExceedsCap):
        rank.modularity_rank(w7, cap=2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=6), st.randoms(use_true_random=False))
def test_random_small_lattice_properties(n, rng):
    lat = rng.choice(list(catalog.enumerate_lattices(n)))
    rep = rank.rank_report(lat)
    assert rep.rank >= 1
    t = tuple(rng.randrange(lat.n) for _ in range(3))
    trace = closure3(lat, t)
    assert trace.final == least_balanced_majorant(lat, t)
    assert trace.stabilization_index <= rep.rank


# -- oracle: the ordered-triple full scan --------------------------------

def gather_stab_indices(meet, join, x, y, z, cap):
    """Oracle for the stabilization indices of rank._fixpoints: the step
    map by 2-D fancy indexing."""
    stab = np.zeros(x.size, dtype=np.int32)
    pos = np.arange(x.size)
    k = 0
    while pos.size:
        assert k <= cap
        x1, y1, z1 = join[x, meet[y, z]], join[y, meet[x, z]], join[z, meet[x, y]]
        same = (x1 == x) & (y1 == y) & (z1 == z)
        stab[pos[same]] = k
        pos, x, y, z = pos[~same], x1[~same], y1[~same], z1[~same]
        k += 1
    return stab


def ordered_triple_scan(lat, cap=None):
    """Oracle for rank.full_triple_scan: all n^3 ordered triples, in
    lexicographic order, each counted once."""
    cap = 3 * lat.height() + 1 if cap is None else cap
    n = lat.n
    x, y, z = (g.ravel().astype(np.int32) for g in
               np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij"))
    stab = gather_stab_indices(lat.meet_table, lat.join_table, x, y, z, cap)
    counts = np.bincount(stab)
    top = int(stab.max())
    first = int(np.flatnonzero(stab == top)[0])
    return rank.ScanResult(n ** 3, {i: int(c) for i, c in enumerate(counts) if c}, top,
                           Triple(int(x[first]), int(y[first]), int(z[first])))


def relabeled(lat, rng):
    perm = np.array(rng.sample(range(lat.n), lat.n))
    inv = np.empty_like(perm)
    inv[perm] = np.arange(lat.n)
    ix = np.ix_(perm, perm)
    return core.FiniteLattice(lat.leq[ix].copy(), inv[lat.meet_table[ix]].astype(np.int32),
                              inv[lat.join_table[ix]].astype(np.int32))


def assert_same_scan(lat):
    """The full scan, the sorted-scan oracle and the full orbit scan under
    the trivial group and under Aut(L), whichever route the size picks,
    against the ordered oracle."""
    want = ordered_triple_scan(lat)
    for scan in (rank.full_triple_scan, SORTED[0], TRIVIAL[0], orbit_route(False)):
        for jobs in (1, 2):
            got = scan(lat, jobs=jobs)
            assert got == want
            assert list(got.histogram) == sorted(got.histogram)
    return got


def test_sorted_scan_matches_ordered_oracle_on_small_lattices(lattices):
    repeated = 0
    for n in range(1, 8):
        for lat in catalog.enumerate_lattices(n):
            repeated += len(set(assert_same_scan(lat).witness)) < 3
    for lat in lattices.values():
        assert_same_scan(lat)
    assert repeated >= 50  # witnesses with repeated entries are well covered


def test_sorted_scan_matches_ordered_oracle_on_m3m4():
    lat = construct.m3_of(catalog.m_k(4)).lattice
    assert_same_scan(lat)
    rng = random.Random(7)
    for _ in range(3):
        assert_same_scan(relabeled(lat, rng))


def test_sorted_scan_blocks_split_rows(monkeypatch, lattices):
    """Blocks smaller than one x-row: witness and counts still merge right,
    also when the witness has repeated entries (a chain's is (0, 1, 1))."""
    monkeypatch.setattr(rank, "_BATCH", 7)
    for name in ("C4", "N5", "witness7", "M5"):
        got = assert_same_scan(lattices[name])
        assert got.triple_count == lattices[name].n ** 3
    assert rank.full_triple_scan(lattices["C4"]).witness == (0, 1, 1)


def trivial_scan_batches(monkeypatch, lat, antichains):
    """The batches and weights the orbit scan with no generators hands
    rank._scan_batch, at _BATCH = 11, as concatenated columns."""
    monkeypatch.setattr(rank, "_BATCH", 11)
    batches, scan_batch = [], rank._scan_batch

    def recording(lat, x, y, z, cap, weight=None, label=None):
        batches.append((x, y, z, weight))
        return scan_batch(lat, x, y, z, cap, weight, label)

    monkeypatch.setattr(rank, "_scan_batch", recording)
    TRIVIAL[antichains](lat)
    assert all(b[0].size == 11 for b in batches[:-1]) and 1 <= batches[-1][0].size <= 11
    x, y, z = (np.concatenate(c) for c in list(zip(*batches))[:3])
    weights = [b[3] for b in batches]
    return list(zip(x.tolist(), y.tolist(), z.tolist())), \
        None if weights[0] is None else np.concatenate(weights)


def test_sorted_blocks_enumerate_sorted_triples(monkeypatch):
    """With no generators, the orbit scan's pairs and starts give exactly
    the sorted triples, in lexicographic order and in batches of _BATCH,
    weighted twice their orbit sizes under permuting coordinates (which sum
    to n^3); and exactly the antichains x < y < z, each counted once."""
    lat = catalog.m_k(4)
    got, w = trivial_scan_batches(monkeypatch, lat, False)
    want = list(itertools.combinations_with_replacement(range(lat.n), 3))
    assert got == want
    orbit = [len(set(itertools.permutations(t))) for t in want]
    assert (w / 2).tolist() == orbit and sum(orbit) == lat.n ** 3
    assert np.array_equal(orbit_sizes(*(np.array(c) for c in zip(*want))), orbit)
    for lat in (catalog.m_k(7), relabeled(catalog.m_k(7), random.Random(5))):
        got, w = trivial_scan_batches(monkeypatch, lat, True)
        assert got == antichains3(lat) and len(got) == 35 and w is None


def test_flat_kernel_matches_gathers():
    rng = np.random.default_rng(3)
    for lat in (catalog.witness7(), construct.m3_of(catalog.m_k(4)).lattice):
        cap = 3 * lat.height() + 1
        for _ in range(5):
            x, y, z = rng.integers(0, lat.n, size=(3, 4_000), dtype=np.int32)
            assert np.array_equal(
                engine_stab_indices(lat, [x, y, z], cap),
                gather_stab_indices(lat.meet_table, lat.join_table, x, y, z, cap))


def test_antichain_scan_rejects_bad_jobs():
    for scan in SCANS:
        for jobs in (0, -1):
            with pytest.raises(ArgumentOutOfRange):
                scan(catalog.n5(), jobs=jobs)


def record_pools(monkeypatch):
    """The max_workers of each thread pool rank starts, in order."""
    seen = []

    def recording_pool(max_workers):
        seen.append(max_workers)
        return ThreadPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(rank, "ThreadPoolExecutor", recording_pool)
    return seen


def test_antichain_scan_caps_threads_at_cores(monkeypatch):
    lat = construct.m3_of(catalog.m_k(4)).lattice
    seen = record_pools(monkeypatch)
    monkeypatch.setattr(rank.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(rank, "_BATCH", 1_000)  # both scans fill more than one batch
    for scan in SCANS:
        assert scan(lat, jobs=8) == scan(lat, jobs=1)
    assert seen == [2, 2]


def test_scan_of_one_batch_starts_no_pool(monkeypatch):
    # M3[M4] takes the orbit scan under Aut(L), which steps 3,542 triples for
    # the full scan and 1,994 for the antichain scan, and the witness's row
    lat = construct.m3_of(catalog.m_k(4)).lattice
    seen = record_pools(monkeypatch)
    for scan in SCANS:
        assert scan(lat, jobs=2) == scan(lat, jobs=1)
    assert seen == []


# -- the orbit scan against the sorted-scan oracle ------------------------

def assert_orbit_route_matches(lat):
    """The orbit scan's whole ScanResult, witness included, under Aut(L)
    and with no generators, and the public scan's, whichever route it
    takes, equal the sorted-scan oracle's, for both scans at one and two
    jobs."""
    for antichains in (False, True):
        want = SORTED[antichains](lat)
        for scan in (orbit_route(antichains, True), orbit_route(antichains, False),
                     SCANS[antichains]):
            for jobs in (1, 2):
                assert scan(lat, jobs=jobs) == want


def test_orbit_route_matches_sorted_routes_on_small_lattices():
    small = [lat for n in range(1, 8) for lat in catalog.enumerate_lattices(n)]
    assert len(small) == 371
    for lat in small:
        assert_orbit_route_matches(lat)


def test_orbit_route_matches_sorted_routes_on_relabeled_m3():
    """Relabelled inputs, whose ids follow no linear extension of the
    order, and the ladder l:16, whose group has order 2."""
    rng = random.Random(19)
    for lat in [catalog.witness7()] + [construct.m3_of(catalog.m_k(k)).lattice
                                       for k in (4, 5, 6, 7)]:
        assert_orbit_route_matches(relabeled(lat, rng))
    assert_orbit_route_matches(catalog.l_family(16))


def sorted_row(lat, x, antichains):
    """Oracle: the pairs (y, z) of x's sorted row, the triples (x, y, z)
    with x <= y <= z, or the antichains x < y < z, in lexicographic order."""
    n = lat.n
    if antichains:
        incomp = ~lat.leq & ~lat.leq.T
        both = np.triu(incomp & incomp[x][:, None] & incomp[x][None, :], k=1)
        both[:x + 1] = False
        return list(zip(*(a.tolist() for a in np.nonzero(both))))
    return [(y, z) for y in range(x, n) for z in range(y, n)]


def test_witness_row_is_stepped_in_chunks_up_to_the_witness(monkeypatch):
    """The orbit scan under Aut(L) steps the witness's sorted row again in
    chunks of _WITNESS_CHUNK triples, up to the first chunk that reaches the
    largest index: at chunks of 1, 7 and more than the row, the whole
    ScanResult, witness included, equals the sorted-scan oracle's on
    relabelled M3[M4..M7], and the row triples stepped are the witness's
    position in its row rounded up to whole chunks."""
    stepped = []
    scan_batch = rank._scan_batch

    def counting(lat, x, y, z, cap, weight=None, label=None):
        if weight is None and label is None:  # a chunk of the row, not an orbit batch
            stepped.append(x.size)
        return scan_batch(lat, x, y, z, cap, weight, label)

    rng = random.Random(38)
    for k in (4, 5, 6, 7):
        lat = relabeled(construct.m3_of(catalog.m_k(k)).lattice, rng)
        for antichains in (False, True):
            want = SORTED[antichains](lat)
            row = sorted_row(lat, want.witness.x, antichains)
            at = row.index((want.witness.y, want.witness.z))
            with monkeypatch.context() as patch:
                patch.setattr(rank, "_scan_batch", counting)
                for chunk in (1, 7, len(row) + 1):
                    patch.setattr(rank, "_WITNESS_CHUNK", chunk)
                    stepped.clear()
                    assert orbit_route(antichains)(lat) == want, (k, antichains, chunk)
                    assert sum(stepped) == min(len(row), (at // chunk + 1) * chunk)
                    assert max(stepped) <= chunk


def test_witness_row_faults_raise(monkeypatch):
    """A row chunk past the scan's largest index, or a row with no triple
    at it, raises VerificationFailed."""
    lat = relabeled(construct.m3_of(catalog.m_k(4)).lattice, random.Random(5))
    scan_batch = rank._scan_batch
    for shift, match in ((1, "passes index"), (-1, "no triple at index")):
        def shifted(lat, x, y, z, cap, weight=None, label=None):
            res = scan_batch(lat, x, y, z, cap, weight, label)
            if weight is None and label is None:
                res = rank.ScanResult(res.triple_count, res.histogram,
                                      res.max_index + shift, res.witness)
            return res

        with monkeypatch.context() as patch:
            patch.setattr(rank, "_scan_batch", shifted)
            with pytest.raises(VerificationFailed, match=match):
                orbit_route(False)(lat)


PRODUCT_FACTORS = (catalog.chain(2), catalog.chain(3), catalog.c2sq(), catalog.m_k(3),
                   catalog.n5(), catalog.boolean(3))


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.builds(catalog.random_c1c4, st.integers(0, 10_000)),
                 st.builds(core.direct_product, st.sampled_from(PRODUCT_FACTORS),
                           st.sampled_from(PRODUCT_FACTORS))),
       st.randoms(use_true_random=False), st.integers(20, 400))
def test_orbit_route_matches_sorted_routes_on_relabeled_grids_and_products(lat, rng, batch):
    """Relabelled random (C1)-(C4) grids and direct products, which have
    nontrivial groups, in batches small enough to split rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rank, "_BATCH", batch)
        assert_orbit_route_matches(relabeled(lat, rng))


def test_merge_takes_the_least_witness_at_the_largest_index():
    # the orbit scan's batches carry their least orbit minimum as witness x,
    # and a later part may hold the least
    parts = [rank.ScanResult(1, {2: 1}, 2, Triple(3, 4, 5)),
             rank.ScanResult(1, {2: 1}, 2, Triple(1, 6, 7)),
             rank.ScanResult(1, {1: 1}, 1, Triple(0, 0, 0))]
    assert rank._merge_blocks(parts) == rank.ScanResult(3, {1: 1, 2: 2}, 2, Triple(1, 6, 7))


def test_route_follows_batch_size_and_group_order(monkeypatch):
    """The table scan runs up to _TABLE_SCAN_KEYS triples; above it the
    orbit scan, under Aut(L) when the scan's sorted triples need more than
    one batch, whatever the group's order, else with no generators.  The
    antichain scan bounds its sorted triples by the incomparable pairs."""
    routes = []
    orbit_scan = rank._orbit_scan

    def recording(lat, cap, jobs, keep, gens):
        aut = lat._automorphisms is not None and gens is lat.automorphisms().generators
        routes.append("Aut(L)" if aut else "no generators" if gens.size == 0 else "?")
        return orbit_scan(lat, cap, jobs, keep, gens)

    monkeypatch.setattr(rank, "_orbit_scan", recording)
    table_scan = rank._table_scan

    def recording_table(lat, cap, antichains):
        routes.append("_table_scan")
        return table_scan(lat, cap, antichains)

    monkeypatch.setattr(rank, "_table_scan", recording_table)
    monkeypatch.setattr(rank, "_TABLE_SCAN_KEYS", 5 ** 3)  # 5 elements fit, 6 do not
    monkeypatch.setattr(rank, "_BATCH", 56)  # 6 elements fit, 7 do not
    square_on_chain = core.from_covers(core.CoverList(7, ((0, 1), (0, 2), (1, 3), (2, 3),
                                                          (3, 4), (4, 5), (5, 6))))
    # the full scan's route, then the antichain scan's (incomparable pairs)
    cases = ((catalog.m_k(3), "_table_scan", "_table_scan"),  # 5 elements
             (catalog.m_k(4), "no generators", "no generators"),  # 6 elements
             (catalog.m_k(5), "Aut(L)", "no generators"),  # 7, S_5; 10 * 9 / 3 <= 56
             (catalog.m_k(7), "Aut(L)", "Aut(L)"),  # 9, S_7; 21 * 11 / 3 > 56
             (catalog.chain(7), "Aut(L)", "no generators"),  # rigid; none
             (square_on_chain, "Aut(L)", "no generators"))  # order 2; 1
    for lat, *want in cases:
        for scan, route in zip(SCANS, want):
            routes.clear()
            assert scan(lat) == SORTED[scan is rank.antichain_rank_scan](lat)
            assert routes == [route]
    assert [int(np.prod(lat.automorphisms().base_orbits)) for lat, *_ in cases] \
        == [6, 24, 120, 5040, 1, 2]


# -- the closure table against the fixpoint loop and the sorted scan ------

TABLE_BASES = ("fano", "subspace:2,3", "l:2")


def oracle_closures(base, arity):
    """Every key's closure, as coordinate columns, and closure index, by the
    fixpoint loop (close_tuples)."""
    keys = np.arange(base.n ** arity, dtype=np.int32)
    return close_tuples(base, rank._decode(base.n, arity, keys))


def test_closures_match_fixpoint_oracle():
    """Every key's closure id and closure index, at arity 3 and 4, equal the
    fixpoint loop's on all lattices with at most 6 elements, Fano, Sub(2,3)
    and l:2: the closure id is the rank of the closure key among the keys
    of index 0."""
    bases = [lat for n in range(1, 7) for lat in catalog.enumerate_lattices(n)]
    bases += [catalog.by_name(name) for name in TABLE_BASES]
    for base in bases:
        for arity in (3, 4):
            cols, index = oracle_closures(base, arity)
            fixed, closure = np.flatnonzero(index == 0), rank._encode(base.n, cols)
            want = np.searchsorted(fixed, closure)
            assert np.array_equal(fixed.take(want), closure)  # closures are fixed
            closed, got = rank._closures(base, arity)
            assert closed.dtype == got.dtype == np.int32
            assert np.array_equal(closed, want), (base.name, arity)
            assert np.array_equal(got, index), (base.name, arity)


def test_closure_ids_are_the_tuple_lattice_ids():
    """The closure table's id of each key names, in m3_of or m4_of, the
    tuple that is the key's closure by the fixpoint loop, at arity 3 and 4,
    on all lattices with at most 6 elements and a relabelling of each.  A
    relabelled base's ids need not follow a linear extension of its order,
    so some keys close to a lower key, and the ids cannot be read in one
    pass from the top key down."""
    small = [lat for n in range(1, 7) for lat in catalog.enumerate_lattices(n)]
    lower = 0
    rng = random.Random(7)
    for base in small + [relabeled(lat, rng) for lat in small]:
        for arity, build in ((3, construct.m3_of), (4, construct.m4_of)):
            cols, _ = oracle_closures(base, arity)
            closed = rank._closures(base, arity)[0]
            k = build(base)
            assert all(np.array_equal(c.take(closed), w) for c, w in zip(k.cols, cols)), \
                (base.name, arity)
            lower += int((rank._encode(base.n, cols) < np.arange(closed.size)).sum())
    assert lower > 0


def crossover_lattices():
    """Chains and M_k with at most as many triples as the table route takes."""
    top = round(rank._TABLE_SCAN_KEYS ** (1 / 3))
    assert top ** 3 <= rank._TABLE_SCAN_KEYS < (top + 1) ** 3
    return [catalog.chain(n) for n in range(1, top + 1)] \
        + [catalog.m_k(k) for k in range(3, top - 1)]


def test_table_scans_match_sorted_route():
    """Both table scans give the sorted-scan oracle's ScanResult on all 371
    lattices with at most 7 elements, on random_c1c4(0..95) and on chains
    and M_k up to the crossover, with the default cap; with a cap below the
    largest index both raise RankExceedsCap."""
    small = [lat for n in range(1, 8) for lat in catalog.enumerate_lattices(n)]
    assert len(small) == 371
    grids = [catalog.random_c1c4(s) for s in range(96)]
    for lat in small + grids + crossover_lattices():
        assert lat.n ** 3 <= rank._TABLE_SCAN_KEYS
        for antichains, scan in enumerate(SCANS):
            want = SORTED[antichains](lat)
            assert scan(lat) == want, (lat.name, antichains)
            if want.max_index:
                cap = want.max_index - 1
                for route in (scan, SORTED[antichains]):
                    with pytest.raises(RankExceedsCap):
                        route(lat, cap=cap)


def test_rank_and_m3_joins_tabulate_once(monkeypatch):
    """rank_report(L) and then m3_of(L).max_closure_index tabulate L^3
    once, as a census job runs them; so do both scans and the tables."""
    calls = counting_step_tables(monkeypatch)
    for lat in (catalog.witness7(), catalog.random_c1c4(5), catalog.fano()):
        calls.clear()
        report = rank.rank_report(lat)
        k = construct.m3_of(lat)
        assert k.max_closure_index >= 0 and calls == [(lat, 3)]
        assert rank.modularity_rank(lat) == report.rank
        assert k.lattice is not None and construct.m3_of(lat)._closed[0] is k._closed[0]
        assert calls == [(lat, 3)]


def test_closure_tables_are_read_only():
    """The closure tables a base shares among its scans and tuple lattices
    cannot be written through any of them."""
    base = catalog.n5()
    for arity, build in ((3, construct.m3_of), (4, construct.m4_of)):
        shared = rank._closures(base, arity)
        assert build(base)._closed is shared
        for arr in shared:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


def test_closure_table_memory_is_bounded(traced_peak):
    """Tabulating and closing the 614,656 quadruple keys over Sub(3,3) holds
    the step table and the two results, 12 bytes a key, and a working set
    of some 32 bytes per key of one _TABLE_BLOCK."""
    base = catalog.subspace_lattice(3, 3)
    _, peak = traced_peak(rank._closures, base, 4)
    assert peak <= 12 * base.n ** 4 + 32 * rank._TABLE_BLOCK
