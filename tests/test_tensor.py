import random

import numpy as np
import pytest

from conftest import relabeled
from latmod import catalog, construct, core, tensor
from latmod.errors import SizeLimitExceeded, VerificationFailed
from latmod.tensor import nabla

BENCH_POOL = ("c2", "c3", "c2sq", "m3", "n5")


# -- oracle: the naive closure and closure-system search ---------------------
# A bi-ideal is a tuple of rows, rows[x] the bitmask of its members <x, .>.

def oracle_down_masks(lat):
    out = []
    for e in range(lat.n):
        mask = 0
        for lo in range(lat.n):
            if lat.le(lo, e):
                mask |= 1 << lo
        out.append(mask)
    return out


def contains(rows, x, y):
    """Oracle helper: whether the pair <x, y> is in the bi-ideal."""
    return bool(rows[x] >> y & 1)


def pairs_of(rows):
    """Oracle helper: the members of the bi-ideal as pairs, row by row."""
    return [(x, y) for x, row in enumerate(rows) for y in range(row.bit_length())
            if row >> y & 1]


def popcount(rows):
    """Oracle helper: the number of members of the bi-ideal."""
    return sum(row.bit_count() for row in rows)


def subset_of(i, j):
    """Oracle helper: whether the bi-ideal i lies inside j, row by row."""
    return all(r & ~s == 0 for r, s in zip(i, j))


def bi_ideal_closure(a, b, pairs):
    """The least bi-ideal containing the pairs, by the library's closure."""
    rows = list(nabla(a, b))
    for x, y in pairs:
        rows[x] |= 1 << y
    return tensor._Tables(a, b).close(rows, list(range(a.n)))


def rows_of_hom(b, h):
    """Oracle helper: the bi-ideal of the join-hom h, row x the down-set of
    h(x)."""
    downs_b = oracle_down_masks(b)
    return tuple(downs_b[v] for v in h)


def is_valid_bi_ideal(a, b, i):
    """Oracle: the four defining conditions of a bi-ideal, checked pair by
    pair."""
    if not subset_of(nabla(a, b), i):
        return False
    downs_b = oracle_down_masks(b)
    for x in range(a.n):
        row = i[x]
        members = [y for y in range(b.n) if row >> y & 1]
        if any(downs_b[y] & ~row for y in members):  # hereditary in B
            return False
        if any(a.le(x2, x) and row & ~i[x2] for x2 in range(a.n)):  # and in A
            return False
        if any(not row >> b.join(y0, y1) & 1 for y0 in members for y1 in members):
            return False
    return all(not i[x0] & i[x1] & ~i[a.join(x0, x1)]
               for x0 in range(a.n) for x1 in range(a.n))


def oracle_closure(a, b, pairs, downs_b=None):
    """Oracle for bi_ideal_closure: nabla plus the pairs, then every rule
    (hereditary in B and in A, join closure in B and in A) swept over all
    rows until nothing changes.  B's down masks can be passed in as
    downs_b; A's order and both join tables are read as lists once."""
    if downs_b is None:
        downs_b = oracle_down_masks(b)
    le_a = a.leq.tolist()
    join_a, join_b = a.join_table.tolist(), b.join_table.tolist()
    rows = list(nabla(a, b))
    for x, y in pairs:
        rows[x] |= 1 << y
    changed = True
    while changed:
        changed = False
        for x in range(a.n):
            ext = 0
            for y in range(b.n):
                if rows[x] >> y & 1:
                    ext |= downs_b[y]
            if ext & ~rows[x]:
                rows[x] |= ext
                changed = True
        for x in range(a.n):
            for x2 in range(a.n):
                if le_a[x2][x] and rows[x] & ~rows[x2]:
                    rows[x2] |= rows[x]
                    changed = True
        for x in range(a.n):
            members = [y for y in range(b.n) if rows[x] >> y & 1]
            for y0 in members:
                for y1 in members:
                    j = join_b[y0][y1]
                    if not rows[x] >> j & 1:
                        rows[x] |= 1 << j
                        changed = True
        for x0 in range(a.n):
            for x1 in range(a.n):
                common = rows[x0] & rows[x1]
                xj = join_a[x0][x1]
                if common & ~rows[xj]:
                    rows[xj] |= common
                    changed = True
    return tuple(rows)


def oracle_bi_ideals(a, b):
    """Oracle for enumerate_bi_ideals: from nabla, close each found
    bi-ideal plus every pair outside it, each closure recomputed in full."""
    downs_b = oracle_down_masks(b)
    start = nabla(a, b)
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for x in range(a.n):
            for y in range(b.n):
                if not contains(cur, x, y):
                    nxt = oracle_closure(a, b, pairs_of(cur) + [(x, y)], downs_b)
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
    return sorted(seen)


def small_lattices():
    return [lat for n in range(2, 6) for lat in catalog.enumerate_lattices(n)]


def test_search_matches_oracle_on_small_lattices():
    lats = small_lattices()
    assert len(lats) == 11
    for a in lats:
        for b in lats:
            assert tensor.enumerate_bi_ideals(a, b) == oracle_bi_ideals(a, b)


def test_search_matches_oracle_on_bench_pool():
    for s in BENCH_POOL:
        for big in ("witness7", "m4"):
            a, b = catalog.by_name(s), catalog.by_name(big)
            assert tensor.enumerate_bi_ideals(a, b) == oracle_bi_ideals(a, b)
            assert tensor.enumerate_bi_ideals(b, a) == oracle_bi_ideals(b, a)


def test_closure_matches_oracle_on_random_pairs():
    rng = random.Random(17)
    lats = small_lattices() + [catalog.witness7(), catalog.m_k(4)]
    for _ in range(300):
        a, b = rng.choice(lats), rng.choice(lats)
        pairs = [(rng.randrange(a.n), rng.randrange(b.n))
                 for _ in range(rng.randrange(5))]
        assert bi_ideal_closure(a, b, pairs) == oracle_closure(a, b, pairs)


def test_matrix_orders_match_loops():
    for sa, sb in (("n5", "m3"), ("c2sq", "witness7"), ("m4", "c3")):
        a, b = catalog.by_name(sa), catalog.by_name(sb)
        tp = tensor.tensor_product(a, b)
        ideals = tensor.enumerate_bi_ideals(a, b)
        want = [[subset_of(i, j) for j in ideals] for i in ideals]
        assert tp.lattice.leq.tolist() == want
        assert tensor._inclusion_order(ideals, b.n).tolist() == want
        homs = tensor.all_join_homs(a, b)
        nonzero = [x for x in range(a.n) if x != a.bottom]
        want = [[all(b.le(hi[x], hj[x]) for x in nonzero) for hj in homs]
                for hi in homs]
        assert core.pointwise_order(b, np.array(homs)).tolist() == want


def test_inclusion_order_past_one_byte_rows():
    # 16-bit rows span two bytes of the membership buffer; C2 is the unit
    a, b = catalog.chain(2), catalog.boolean(4)
    ideals = tensor.enumerate_bi_ideals(a, b)
    assert len(ideals) == 16
    want = np.array([[subset_of(i, j) for j in ideals] for i in ideals])
    assert np.array_equal(tensor._inclusion_order(ideals, b.n), want)


def test_nabla_shape():
    for a, b in ((catalog.chain(3), catalog.n5()),
                 (catalog.m_k(3), catalog.c2sq())):
        nb = nabla(a, b)
        assert popcount(nb) == a.n + b.n - 1
        assert is_valid_bi_ideal(a, b, nb)
        assert all(contains(nb, x, b.bottom) for x in range(a.n))
        assert all(contains(nb, a.bottom, y) for y in range(b.n))


def test_pure_tensors():
    # the closure of one pair <x, y> is the pure tensor x (x) y: nabla plus
    # the rectangle below <x, y>
    a, b = catalog.m_k(3), catalog.n5()
    for x in range(a.n):
        for y in range(b.n):
            rect = [(x2, y2) for x2 in range(a.n) for y2 in range(b.n)
                    if a.le(x2, x) and b.le(y2, y)]
            pt = bi_ideal_closure(a, b, [(x, y)])
            assert set(pairs_of(pt)) == set(pairs_of(nabla(a, b))) | set(rect)
            assert is_valid_bi_ideal(a, b, pt)
    assert bi_ideal_closure(a, b, [(a.bottom, b.top)]) == nabla(a, b)
    assert popcount(bi_ideal_closure(a, b, [(a.top, b.top)])) == a.n * b.n


def test_closure_operator_laws():
    rng = random.Random(5)
    a, b = catalog.m_k(3), catalog.n5()
    for _ in range(60):
        pairs = [(rng.randrange(a.n), rng.randrange(b.n))
                 for _ in range(rng.randrange(4))]
        more = pairs + [(rng.randrange(a.n), rng.randrange(b.n))]
        small, big = bi_ideal_closure(a, b, pairs), bi_ideal_closure(a, b, more)
        assert is_valid_bi_ideal(a, b, small)
        assert all(contains(small, x, y) for x, y in pairs)     # extensive
        assert subset_of(small, big)                            # monotone
        assert bi_ideal_closure(a, b, pairs_of(small)) == small  # idempotent


def test_hom_representation(lattices):
    pool = [lattices[s] for s in ("C2", "C3", "C2sq", "M3", "N5")]
    for a in pool:
        for b in pool:
            rep = tensor.verify_repr_iso(a, b)
            assert rep.passed, (a.name, b.name, rep)
            assert rep.hom_count == rep.ideal_count


def test_phi_and_hom_inverse_each_other():
    a, b = catalog.n5(), catalog.m_k(3)
    ideals = tensor.enumerate_bi_ideals(a, b)
    homs = tensor._largest_members(ideals, oracle_down_masks(b))
    assert [rows_of_hom(b, h) for h in homs] == ideals
    assert homs == tensor.all_join_homs(a, b)
    assert all(h[a.bottom] == b.top for h in homs)


def test_two_chain_unit_law(lattices):
    c2 = lattices["C2"]
    for name in ("C2", "C3", "C2sq", "M3", "M4", "N5", "witness7"):
        lat = lattices[name]
        tp = tensor.tensor_product(c2, lat)
        assert core.find_isomorphism(tp.lattice, lat) is not None


def test_small_tensor_examples(lattices):
    tp = tensor.tensor_product(lattices["M3"], lattices["C2"])
    assert core.find_isomorphism(tp.lattice, lattices["M3"]) is not None
    sq = tensor.tensor_product(lattices["C3"], lattices["C3"])
    # distributive factors: the tensor is the poset of antitone-style
    # assignments; for two 3-chains this has 6 elements
    assert len(sq) == 6
    assert core.is_distributive(sq.lattice)


def test_tensor_symmetry(lattices):
    pairs = [("C3", "N5"), ("M3", "C2sq"), ("C2sq", "N5")]
    for sa, sb in pairs:
        ab = tensor.tensor_product(lattices[sa], lattices[sb]).lattice
        ba = tensor.tensor_product(lattices[sb], lattices[sa]).lattice
        assert core.find_isomorphism(ab, ba) is not None


def test_all_outputs_are_valid_bi_ideals():
    a, b = catalog.n5(), catalog.c2sq()
    tp = tensor.tensor_product(a, b)
    for h in tp.homs.tolist():
        assert is_valid_bi_ideal(a, b, rows_of_hom(b, h))


def test_m3_tensor_matches_balanced_triples(lattices):
    for name in ("C2", "C3", "C2sq", "N5", "M4"):
        rep = tensor.verify_m3_tensor_iso(lattices[name])
        assert rep.passed, (name, rep)
        assert rep.tensor_size == len(
            tensor.tensor_product(catalog.m_k(3), lattices[name]))


def test_phi_of_rejects_row_without_largest_member():
    a, b = catalog.chain(2), catalog.m_k(3)
    atoms = sum(1 << b.index_of(s) for s in "ab") | 1 << b.bottom
    bad = (nabla(a, b)[0], atoms)
    with pytest.raises(VerificationFailed):
        tensor._largest_members([bad], oracle_down_masks(b))


def test_tensor_checks_survive_optimize_flag(run_optimized):
    script = """
        from latmod import catalog, tensor
        from latmod.errors import VerificationFailed
        a, b = catalog.chain(2), catalog.m_k(3)
        atoms = sum(1 << b.index_of(s) for s in "ab") | 1 << b.bottom
        bad = (tensor.nabla(a, b)[0], atoms)
        try:
            tensor._largest_members([bad], tensor._down_masks(b))
        except VerificationFailed:
            print("raised")
        print("debug", __debug__)
    """
    words, err = run_optimized(script)
    assert words == ["raised", "debug", "False"], err


def test_m3_bridge_above_eager_table_cap(monkeypatch):
    # m3_of then builds no tables; the bridge must not need them
    monkeypatch.setattr(construct, "EAGER_TABLE_CAP", 0)
    for name in ("c3", "n5"):
        rep = tensor.verify_m3_tensor_iso(catalog.by_name(name))
        assert rep.passed, (name, rep)


def test_tensor_size_cap():
    with pytest.raises(SizeLimitExceeded):
        tensor.tensor_product(catalog.boolean(3), catalog.boolean(6))


def test_checks_reuse_a_built_tensor(lattices):
    for sa, sb in (("M3", "C2"), ("M3", "N5"), ("N5", "C3")):
        a, b = lattices[sa], lattices[sb]
        tp = tensor.tensor_product(a, b)
        assert tensor.verify_repr_iso(a, b, tp) == tensor.verify_repr_iso(a, b)
        # a tensor whose left factor is not M_3 is not reused for the bridge
        assert tensor.verify_m3_tensor_iso(b, tp) == tensor.verify_m3_tensor_iso(b)
        assert tensor.verify_m3_tensor_iso(b, tp).passed


def test_m3_bridge_flags_unbalanced_images():
    """A tensor whose row takes the atoms to an unbalanced triple fails the
    bridge at the id lookup, before the order is compared."""
    l = catalog.n5()
    tp = tensor.tensor_product(catalog.m_k(3), l)
    homs = tp.homs.copy()
    homs[1, [tp.left.index_of(s) for s in "abc"]] = (l.top, l.top, l.bottom)
    rep = tensor.verify_m3_tensor_iso(l, tensor.TensorLattice(tp.left, l, homs, tp.lattice))
    assert (rep.images_balanced, rep.explicit_iso, rep.passed) == (False, False, False)


def test_tensor_rows_follow_the_oracle_on_relabeled_factors():
    # the rows are the bi-ideals sorted by their row masks, which on a
    # renumbered factor is not the order of the raw hom values
    for sa, sb in (("n5", "m3"), ("m3", "n5"), ("c2sq", "witness7"),
                   ("m4", "c3"), ("witness7", "c2sq")):
        for seed in (1, 2):
            a = relabeled(catalog.by_name(sa), seed)
            b = relabeled(catalog.by_name(sb), seed + 10)
            tp = tensor.tensor_product(a, b)
            ideals = tensor.enumerate_bi_ideals(a, b)
            assert [rows_of_hom(b, h) for h in tp.homs.tolist()] == ideals
            want = [[subset_of(i, j) for j in ideals] for i in ideals]
            assert tp.lattice.leq.tolist() == want, (sa, sb, seed)
            assert list(tp.lattice.names) == [f"I{i}#{popcount(rows)}"
                                              for i, rows in enumerate(ideals)]


def test_repr_check_enumerates_no_homs_for_a_built_tensor(monkeypatch):
    a, b = catalog.n5(), catalog.m_k(3)
    tp = tensor.tensor_product(a, b)

    def refuse(*args):
        raise AssertionError("homs enumerated again")

    monkeypatch.setattr(tensor, "all_join_homs", refuse)
    assert tensor.verify_repr_iso(a, b, tp).passed


def test_repr_report_flags_tampered_tensor():
    a, b = catalog.n5(), catalog.m_k(3)
    tp = tensor.tensor_product(a, b)
    rep = tensor.verify_repr_iso(a, b, tp)
    assert rep.passed and rep.hom_count == rep.ideal_count == len(tp)
    # two rows swapped: the routes and the map disagree, the order does not
    swapped = tp.homs.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    rep = tensor.verify_repr_iso(a, b, tensor.TensorLattice(a, b, swapped, tp.lattice))
    assert (rep.routes_agree, rep.bijective, rep.order_iso) == (False, False, True)
    # the right rows under the wrong order
    chain = catalog.chain(len(tp))
    rep = tensor.verify_repr_iso(a, b, tensor.TensorLattice(a, b, tp.homs, chain))
    assert (rep.routes_agree, rep.bijective, rep.order_iso) == (True, True, False)
