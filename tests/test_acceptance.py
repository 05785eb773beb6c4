"""Top-level acceptance checks, one test per shipped guarantee.

Each test is self-contained and recomputes its numbers from scratch; the
expected values are frozen constants cross-checked by the module-level
suites and the `latmod repro` command.
"""

import itertools
import os

import pytest

from conftest import antichains3, interval, is_balanced3
from latmod import catalog, congruence, construct, core, rank, symbolic, tensor


def test_01_balanced_triple_counts_over_m4():
    k = construct.m3_of(catalog.m_k(4))
    res = rank.antichain_rank_scan(k.lattice)
    assert res.triple_count == 89_217
    assert res.failing(2) == 936
    assert res.failing(3) == 0
    for width in (4, 5, 6):
        assert rank.modularity_rank(
            construct.m3_of(catalog.m_k(width)).lattice) == 3


def test_02_iteration_tables():
    base = catalog.m_k(4)
    k = construct.m3_of(base)
    tid = lambda *ns: k.index[tuple(base.index_of(s) for s in ns)]
    tr = rank.closure3(k.lattice, rank.Triple(
        tid("b", "c", "a"), tid("b", "a", "d"), tid("a", "0", "c")))
    rows = [tuple(k.tuple_name(e) for e in row) for row in tr.iterates]
    assert rows[:4] == [
        ("<b,c,a>", "<b,a,d>", "<a,0,c>"),
        ("<b,c,a>", "<b,a,d>", "<1,c,c>"),
        ("<b,c,a>", "<1,1,1>", "<1,c,c>"),
        ("<1,1,1>", "<1,1,1>", "<1,1,1>")]
    assert tr.stabilization_index == 3

    plane = catalog.fano()
    kp = construct.m3_of(plane)
    pid = lambda *ns: kp.index[tuple(plane.index_of(s) for s in ns)]
    tr = rank.closure3(kp.lattice, rank.Triple(
        pid("3", "6", "4"), pid("3", "457", "2"), pid("7", "2", "561")))
    rows = [tuple(kp.tuple_name(e) for e in row) for row in tr.iterates]
    assert rows[:5] == [
        ("<3,6,4>", "<3,457,2>", "<7,2,561>"),
        ("<3,6,4>", "<3,457,2>", "<713,124,561>"),
        ("<346,346,346>", "<3,457,2>", "<713,124,561>"),
        ("<346,346,346>", "<713,457,672>", "<713,124,561>"),
        ("<PL,346,346>", "<713,457,672>", "<713,124,561>")]
    assert rows[3][0] != rows[4][0]  # a fourth step still moves: not rank 3
    assert tr.stabilization_index == 4


def test_03_plane_triple_lattice_size():
    assert len(construct.m3_of(catalog.fano())) == 1_090


def test_03x_plane_full_antichain_scan():
    res = rank.antichain_rank_scan(construct.m3_of(catalog.fano()).lattice,
                                   jobs=os.cpu_count() or 1)
    assert res.triple_count == 193_025_561
    assert res.histogram == {0: 18_923_773, 1: 100_134_160, 2: 68_538_792,
                             3: 5_230_260, 4: 198_576}
    assert res.failing(3) > 0
    assert res.failing(4) == 0


def test_04_rank_ladder_and_minimal_sizes():
    assert rank.modularity_rank(catalog.m_k(3)) == 1
    assert rank.modularity_rank(catalog.boolean(3)) == 1
    for n in (1, 2, 5, 9):
        assert rank.modularity_rank(catalog.chain(n)) == 1
    assert rank.modularity_rank(catalog.n5()) == 2
    assert rank.modularity_rank(catalog.witness7()) == 3
    # exhaustive: no lattice on <= 6 elements reaches rank 3, one on 7 does
    firsts = {}
    for n in range(1, 8):
        for lat in catalog.enumerate_lattices(n):
            firsts.setdefault(rank.modularity_rank(lat), n)
    assert firsts[2] == 5 and firsts[3] == 7
    for n in (1, 2, 3, 4):
        assert rank.modularity_rank(catalog.l_family(n)) == n + 1


def test_05_congruence_preserving_extension():
    for name in ("c2", "c3", "c2sq", "n5", "m3", "m4", "witness7"):
        base = catalog.by_name(name)
        for emb in ("atom", "diag"):
            rep = congruence.verify_cpe(base, emb)
            assert rep.passed, (name, emb, rep)
            assert rep.base_con_count == rep.ext_con_count
    # above the table cap: M3[Sub(3,3)] has 6,817 elements, and Sub(q, d) is simple
    base = catalog.by_name("subspace:3,3")
    for emb in ("atom", "diag"):
        rep = congruence.verify_cpe(base, emb)
        assert (rep.passed, rep.base_con_count, rep.ext_con_count) == (True, 2, 2), emb


@pytest.mark.skipif(not os.environ.get("LATMOD_EXTENDED"),
                    reason="M3[Sub(2,4)] has 56,725 elements, about 3 s; set LATMOD_EXTENDED=1")
def test_05x_cpe_over_m3_of_sub24():
    base = catalog.by_name("subspace:2,4")
    for emb in ("atom", "diag"):
        rep = congruence.verify_cpe(base, emb)
        assert (rep.passed, rep.base_con_count, rep.ext_con_count) == (True, 2, 2), emb


def test_06_tensor_bridge():
    pool = [catalog.by_name(s) for s in ("c2", "c3", "c2sq", "m3", "n5")]
    for a in pool:
        for b in pool:
            assert tensor.verify_repr_iso(a, b).passed, (a.name, b.name)
    for s in ("c2", "c2sq", "c3", "n5", "m4"):
        assert tensor.verify_m3_tensor_iso(catalog.by_name(s)).passed, s
    for d in (catalog.chain(2), catalog.chain(3), catalog.c2sq(),
              catalog.boolean(3)):
        assert core.find_isomorphism(
            construct.m3_power_poset(d), construct.m3_of(d).lattice) is not None


def test_07_divergence_witnesses():
    trace = symbolic.fig2_divergence(64)
    assert trace.stabilization_index is None
    seq = symbolic.dhw_adjustment(64)
    lat = symbolic.dhw_lattice()
    INF = symbolic.INF
    for k in range(31):
        for step in (2 * k + 1, 2 * k + 2):
            assert seq[step][0] == (2 * k + 2, INF)
            assert seq[step][3] == (INF, 2 * k + 2)
        for step in (2 * k + 2, 2 * k + 3):
            assert seq[step][1] == (2 * k + 3, INF)
            assert seq[step][2] == (INF, 2 * k + 3)
    for prev, cur in zip(seq, seq[1:]):
        assert prev != cur and all(lat.le(p, q) for p, q in zip(prev, cur))


def test_08_wide_sublattice_inside_double_triple():
    k, ids = construct.m4_sublattice_in_m3m3()
    # the constructor asserts the pairwise meets/joins and the sublattice
    # isomorphism; re-check the bounds here
    lat = k.lattice
    assert all(lat.meet(ids[s], ids[t]) == lat.bottom
               for s in range(4) for t in range(s + 1, 4))
    assert all(lat.join(ids[s], ids[t]) == lat.top
               for s in range(4) for t in range(s + 1, 4))


def test_09_property_suites(lattices):
    # (a) closure = least balanced majorant, by full enumeration
    for lat in lattices.values():
        if lat.n > 12:
            continue
        balanced = [t for t in itertools.product(lat.elements(), repeat=3)
                    if is_balanced3(lat, t)]
        for t in itertools.product(lat.elements(), repeat=3):
            above = [s for s in balanced
                     if all(lat.le(p, q) for p, q in zip(t, s))]
            best = above[0]
            for s in above[1:]:
                best = tuple(lat.meet(p, q) for p, q in zip(best, s))
            assert rank.closure3(lat, t).final == best
    # (b) the triple lattice is modular exactly over distributive bases
    for lat in lattices.values():
        assert (core.is_modular(construct.m3_of(lat).lattice)
                == core.is_distributive(lat))
    # (c) a thousand random doubled grids, none beyond rank 3
    assert all(rank.modularity_rank(catalog.random_c1c4(seed)) <= 3
               for seed in range(1000))
    # (d) only antichains can take more than two steps
    for lat in lattices.values():
        anti = set(antichains3(lat))
        for t in itertools.product(lat.elements(), repeat=3):
            if tuple(sorted(set(t))) not in anti:
                assert rank.closure3(lat, t).stabilization_index <= 2
    # (e) rank laws: products take the max, sublattices never exceed
    for a, b in (("N5", "C3"), ("M3", "M4"), ("C2sq", "witness7")):
        prod = core.direct_product(lattices[a], lattices[b])
        assert rank.modularity_rank(prod) == max(
            rank.modularity_rank(lattices[a]), rank.modularity_rank(lattices[b]))
    w7 = lattices["witness7"]
    for lo in w7.elements():
        for hi in w7.elements():
            if w7.le(lo, hi):
                assert (rank.modularity_rank(interval(w7, lo, hi))
                        <= rank.modularity_rank(w7))
