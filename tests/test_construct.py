import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    close_tuples,
    counting_step_tables,
    is_balanced3,
    is_balanced4,
    refuse_allocations,
    tuples_of,
)
from latmod import catalog, construct, core, rank
from latmod.construct import m3_of, m4_of
from latmod.errors import NotDistributive, SizeLimitExceeded, VerificationFailed


def test_balanced_triple_lattice_sizes():
    assert len(m3_of(catalog.chain(2))) == 5
    assert len(m3_of(catalog.c2sq())) == 25
    assert len(m3_of(catalog.m_k(4))) == 93
    assert len(m3_of(catalog.m_k(5))) == 160
    assert len(m3_of(catalog.m_k(6))) == 257
    assert len(m3_of(catalog.fano())) == 1_090


def test_balanced_quadruple_lattice_sizes():
    k = m4_of(catalog.chain(2))
    assert len(k) == 6
    assert core.find_isomorphism(k.lattice, catalog.m_k(4)) is not None
    assert len(m4_of(catalog.chain(3))) == 15


def test_membership_is_exactly_balancedness(lattices):
    for name in ("C3", "N5", "M4", "C2sq"):
        base = lattices[name]
        k = m3_of(base)
        expected = sorted(t for t in itertools.product(base.elements(), repeat=3)
                          if is_balanced3(base, t))
        assert tuples_of(k) == expected
        q = m4_of(base)
        for t in itertools.product(base.elements(), repeat=4):
            assert (q.ids(t) >= 0) == is_balanced4(base, t)


def test_meets_componentwise_joins_are_closures(lattices):
    base = lattices["N5"]
    k = m3_of(base)
    lat, tuples = k.lattice, tuples_of(k)
    for i in range(len(k)):
        for j in range(len(k)):
            ti, tj = tuples[i], tuples[j]
            assert tuples[lat.meet(i, j)] == tuple(
                base.meet(a, b) for a, b in zip(ti, tj))
            raw = tuple(base.join(a, b) for a, b in zip(ti, tj))
            assert tuples[lat.join(i, j)] == rank.closure3(base, raw).final


def test_m3m4_iteration_table():
    base = catalog.m_k(4)
    k = m3_of(base)
    tid = lambda *ns: int(k.ids([base.index_of(s) for s in ns]))
    tr = rank.closure3(k.lattice, rank.Triple(
        tid("b", "c", "a"), tid("b", "a", "d"), tid("a", "0", "c")))
    rows = [tuple(k.tuple_name(e) for e in row) for row in tr.iterates]
    assert rows[0] == ("<b,c,a>", "<b,a,d>", "<a,0,c>")
    assert rows[1] == ("<b,c,a>", "<b,a,d>", "<1,c,c>")
    assert rows[2] == ("<b,c,a>", "<1,1,1>", "<1,c,c>")
    assert rows[3] == ("<1,1,1>", "<1,1,1>", "<1,1,1>")
    assert tr.stabilization_index == 3


def test_fano_iteration_table():
    base = catalog.fano()
    k = m3_of(base)
    tid = lambda *ns: int(k.ids([base.index_of(s) for s in ns]))
    tr = rank.closure3(k.lattice, rank.Triple(
        tid("3", "6", "4"), tid("3", "457", "2"), tid("7", "2", "561")))
    rows = [tuple(k.tuple_name(e) for e in row) for row in tr.iterates]
    assert rows[1][2] == "<713,124,561>"
    assert rows[2][0] == "<346,346,346>"
    assert rows[3][1] == "<713,457,672>"
    assert rows[4][0] == "<PL,346,346>"
    assert tr.stabilization_index == 4


def test_spanning_m3(lattices):
    for name in ("C2", "C3", "N5", "M3", "witness7"):
        k = m3_of(lattices[name])
        ids = construct.spanning_m3(k)
        assert len(set(ids)) == 5
    # over C1 the five tuples are one element, which spans no M3
    with pytest.raises(VerificationFailed):
        construct.spanning_m3(m3_of(lattices["C1"]))


def test_embeddings_are_exhaustively_checked():
    k = m3_of(catalog.n5())
    atom = construct.embed_atom(k)
    diag = construct.embed_diag(k)
    assert atom[k.base.bottom] == diag[k.base.bottom] == k.lattice.bottom
    assert diag[k.base.top] == k.lattice.top
    assert atom != diag


def test_modularity_transfer(lattices):
    """The balanced-triple lattice is modular exactly when the base is
    distributive; a non-distributive base yields a pentagon upstairs."""
    for lat in lattices.values():
        k = m3_of(lat)
        assert core.is_modular(k.lattice) == core.is_distributive(lat)
    # in particular the construction over M_3 itself is not modular,
    # even though M_3 is
    assert not core.is_modular(m3_of(lattices["M3"]).lattice)


def test_power_poset_counts_and_iso():
    for d in (catalog.chain(2), catalog.chain(3), catalog.c2sq(),
              catalog.boolean(3)):
        p = construct.m3_power_poset(d)
        k = m3_of(d)
        assert core.find_isomorphism(p, k.lattice) is not None
    assert construct.m3_power_poset(catalog.chain(3)).n == 12
    assert construct.m3_power_poset(catalog.boolean(3)).n == 125
    with pytest.raises(NotDistributive):
        construct.m3_power_poset(catalog.m_k(3))


def test_power_poset_fails_fast_above_the_element_cap(traced_peak):
    # B6 has six join-irreducibles, an antichain, so 5^6 isotone maps; their
    # pointwise order alone would take 15,625^2 bytes, about 244 MB
    def build():
        with pytest.raises(SizeLimitExceeded, match="15625 elements"):
            construct.m3_power_poset(catalog.boolean(6))

    _, peak = traced_peak(build)
    assert peak < 32 << 20


def test_coordinate_permutation_is_automorphism():
    base = catalog.n5()
    k = m3_of(base)
    perm = k.ids([k.cols[1], k.cols[2], k.cols[0]])
    lat = k.lattice
    for i in range(len(k)):
        for j in range(len(k)):
            assert lat.meet(perm[i], perm[j]) == perm[lat.meet(i, j)]
            assert lat.join(perm[i], perm[j]) == perm[lat.join(i, j)]


def test_m4_inside_double_m3():
    k, ids = construct.m4_sublattice_in_m3m3()
    assert len(set(ids)) == 4
    assert k.base.n == 5
    # oracle: the six elements, by their induced order, are M4
    lat = k.lattice
    six = sorted([lat.bottom, lat.top] + ids)
    sub = core.lattice_from_leq(lat.leq[np.ix_(six, six)])
    assert core.find_isomorphism(sub, catalog.m_k(4)) is not None


def test_m4_check_rejects_repeated_elements(monkeypatch):
    def repeated(base):
        k = m3_of(base)
        o, b, c = base.bottom, base.index_of("b"), base.index_of("c")
        ids = k.ids
        k.ids = lambda cols: np.where(ids(cols) == ids((o, c, base.index_of("a"))),
                                      ids((o, b, c)), ids(cols))
        return k

    monkeypatch.setattr(construct, "m3_of", repeated)
    with pytest.raises(VerificationFailed, match="not distinct"):
        construct.m4_sublattice_in_m3m3()


def test_closure_record_matches_rank():
    for base in (catalog.m_k(4), catalog.n5(), catalog.witness7()):
        k = m3_of(base)
        assert k.max_closure_index <= rank.modularity_rank(base)


# -- oracle: the all-pairs join closure ------------------------------------

def all_pairs_tables(k):
    """Oracle for the tables of m3_of/m4_of: meets and closed joins of all
    count^2 ordered pairs, by 2-D fancy indexing.  Returns (meet, join,
    largest closure index)."""
    base, count = k.base, len(k)
    m, j = base.meet_table, base.join_table
    tuples = tuples_of(k)
    cols = [np.array([t[i] for t in tuples]) for i in range(k.arity)]
    locate = np.full((base.n,) * k.arity, -1)  # a tuple's id, by its entries
    locate[tuple(cols)] = np.arange(count)
    meet = locate[tuple(m[c[:, None], c[None, :]] for c in cols)]
    cur = [j[c[:, None], c[None, :]].ravel() for c in cols]
    pos = np.arange(count * count)
    join = np.empty(count * count, dtype=np.int64)
    depth = k_ = 0
    while pos.size:
        if k.arity == 3:
            x, y, z = cur
            nxt = [j[x, m[y, z]], j[y, m[x, z]], j[z, m[x, y]]]
        else:  # each entry joins the meets of the pairs it is not in
            meets = {p: m[cur[p[0]], cur[p[1]]]
                     for p in itertools.combinations(range(4), 2)}
            nxt = []
            for i in range(4):
                v = cur[i]
                for p, mp in meets.items():
                    if i not in p:
                        v = j[v, mp]
                nxt.append(v)
        same = np.logical_and.reduce([a == b for a, b in zip(cur, nxt)])
        join[pos[same]] = locate[tuple(c[same] for c in cur)]
        depth = k_
        pos, cur = pos[~same], [c[~same] for c in nxt]
        k_ += 1
    return meet, join.reshape(count, count), depth


def assert_tables_match_oracle(k):
    meet, join, depth = all_pairs_tables(k)
    ids = np.arange(len(k))
    assert np.array_equal(k.meet(ids[:, None], ids), meet)
    assert np.array_equal(k.join(ids[:, None], ids), join)
    assert np.array_equal(k.lattice.meet_table, meet)
    assert np.array_equal(k.lattice.join_table, join)
    assert k.max_closure_index == depth


def test_half_table_closure_matches_all_pairs_oracle():
    for n in range(1, 8):
        for lat in catalog.enumerate_lattices(n):
            assert_tables_match_oracle(m3_of(lat))
            assert_tables_match_oracle(m4_of(lat))
    m4 = catalog.m_k(4)
    assert_tables_match_oracle(m3_of(m4))
    assert_tables_match_oracle(m4_of(m4))


def test_lazy_closure_depth_matches_eager(monkeypatch):
    """The depth of a lattice whose tables were built first, the depth
    without tables read and tabulated in blocks of 50 (stopping at the
    largest key index), and the per-pair oracle agree on every lattice with
    at most 6 elements and on M4, at arity 3 and 4."""
    def bases():  # new bases, whose closure tables are not built yet
        return [lat for n in range(1, 7) for lat in catalog.enumerate_lattices(n)] \
            + [catalog.m_k(4)]

    eager, oracle = [], []
    for b in bases():
        k3, k4 = m3_of(b), m4_of(b)
        assert k3.lattice is not None and k4.lattice is not None
        eager.append((k3.max_closure_index, k4.max_closure_index))
        oracle.append((per_pair_depth(k3), per_pair_depth(k4)))
    monkeypatch.setattr(construct, "EAGER_TABLE_CAP", 0)
    monkeypatch.setattr(construct, "_MARK_ENTRIES", 50)  # many blocks
    monkeypatch.setattr(rank, "_TABLE_BLOCK", 50)
    lazy = []
    for b in bases():
        k3, k4 = m3_of(b), m4_of(b)
        for k in (k3, k4):
            with pytest.raises(SizeLimitExceeded):
                k.lattice
        lazy.append((k3.max_closure_index, k4.max_closure_index))
    assert lazy == eager == oracle
    assert max(d for d, _ in eager) >= 2


def test_lazy_operations_equal_eager_tables(monkeypatch):
    """Without tables, meet and join on id arrays give the tables of the
    same lattice built under the cap."""
    builds = [(m3_of, catalog.n5()), (m3_of, catalog.witness7()), (m4_of, catalog.m_k(4))]
    eager = [build(base).lattice for build, base in builds]
    monkeypatch.setattr(construct, "EAGER_TABLE_CAP", 0)
    for (build, base), lat in zip(builds, eager):
        k = build(base)
        ids = np.arange(len(k))
        with pytest.raises(SizeLimitExceeded):
            k.lattice
        assert np.array_equal(k.meet(ids[:, None], ids), lat.meet_table), k.name
        assert np.array_equal(k.join(ids[:, None], ids), lat.join_table), k.name


def test_builds_tabulate_once_per_base_and_arity(monkeypatch):
    """m3_of and m4_of read their elements off the base's closure table,
    tabulated once per base and arity: a second build, the depth and the
    joins tabulate nothing more, and no build holds a key map of its own."""
    eager = m3_of(catalog.m_k(4))
    assert eager.lattice is not None  # tables and depth before counting
    calls = counting_step_tables(monkeypatch)
    monkeypatch.setattr(construct, "EAGER_TABLE_CAP", 0)
    base = catalog.m_k(4)
    k, again = m3_of(base), m3_of(base)
    assert calls == [(base, 3)] and holds_only_the_shared_table(k)
    assert k.max_closure_index == again.max_closure_index == eager.max_closure_index
    quads = m4_of(base)
    assert m4_of(base).join(0, len(quads) - 1) == quads.join(0, len(quads) - 1)
    assert calls == [(base, 3), (base, 4)]


def holds_only_the_shared_table(k):
    """k caches nothing over the n^arity keys but its base's closure table."""
    cached = set(vars(k)) - {"base", "cols", "arity", "name", "lattice", "max_closure_index"}
    return cached <= {"_closed"} and (
        not cached or k._closed is rank._closures(k.base, k.arity))


def test_lazy_build_defers_tuple_list_and_index(monkeypatch):
    calls = counting_step_tables(monkeypatch)
    k = m3_of(catalog.subspace_lattice(2, 4))
    with pytest.raises(SizeLimitExceeded):
        k.lattice
    assert len(k) == k.cols[0].size > construct.EAGER_TABLE_CAP
    assert calls == [(k.base, 3)]
    assert np.array_equal(k.ids(k.cols), np.arange(len(k)))
    index = k.index
    rows = np.stack(k.cols, axis=1)
    assert all(index[tuple(r)] == i for i, r in enumerate(rows.tolist()))
    assert (index >= 0).sum() == len(k)
    assert calls == [(k.base, 3)] and holds_only_the_shared_table(k)


def test_keys_ascend_with_the_tuple_order():
    """_encode packs tuples into int32 keys, the tuples read as base-n
    numbers, which ascend with the lexicographic order; _decode inverts it."""
    n = 215  # 215^4 < 2^31
    cols = [np.array(c, dtype=np.int32) for c in
            zip(*sorted([(0, 0, 0, 1), (5, 200, 7, 3), (214, 214, 214, 214)]))]
    keys = rank._encode(n, cols)
    assert all(np.array_equal(a, b) for a, b in zip(rank._decode(n, 4, keys), cols))
    assert keys.dtype == np.int32
    want = [sum(int(c[i]) * n ** (3 - a) for a, c in enumerate(cols)) for i in range(3)]
    assert keys.tolist() == want and want == sorted(want)


# -- oracle: the per-pair eager join closure ------------------------------------

def close_joins(base, cols, ia, ib):
    """Oracle for the joins of m3_of/m4_of: close the componentwise joins of
    the tuple pairs (ia[i], ib[i]) under the step map, one entry per pair.
    Returns the closed columns in pair order and the largest closure
    index."""
    jf = base.join_table.ravel()
    closed, index = close_tuples(
        base, [jf.take(c.take(ia) * base.n + c.take(ib)) for c in cols])
    return closed, index.max()


def per_pair_joins(k):
    """Oracle for the key closure of m3_of/m4_of: the eager route it
    replaced, which closed every pair a <= b through close_joins and
    mirrored the table.  Returns (join table, largest closure index)."""
    n, count = k.base.n, len(k)
    where = np.full(n ** k.arity, -1)
    where[rank._encode(n, k.cols)] = np.arange(count)
    ia, ib = np.triu_indices(count)
    closed, depth = close_joins(k.base, k.cols, ia, ib)
    join = np.empty((count, count), dtype=np.int64)
    join[ia, ib] = join[ib, ia] = where.take(rank._encode(n, closed))
    return join, depth


def test_key_closure_matches_per_pair_oracle():
    """About 0.5 s: sixteen census grids (63k-151k pairs each), M3[Fano]
    (594,595 pairs) and M4[M4]."""
    built = [m3_of(catalog.random_c1c4(s)) for s in range(16)]
    built += [m3_of(catalog.fano()), m4_of(catalog.m_k(4))]
    for k in built:
        join, depth = per_pair_joins(k)
        assert np.array_equal(k.lattice.join_table, join), k.name
        assert k.max_closure_index == depth, k.name


def componentwise_join_keys(k):
    """The distinct componentwise joins of all pairs, as sorted keys."""
    j = k.base.join_table
    key = 0
    for c in k.cols:
        key = key * k.base.n + j[c[:, None], c[None, :]]
    return np.unique(key)


def test_eager_build_closes_each_distinct_join_once(monkeypatch):
    """The tables, the depth and the operations, read in any order, share
    one table of the n^arity keys, which cover every distinct componentwise
    join, and close none of the count(count+1)/2 pairs a <= b; a second
    tuple lattice of the same base and arity shares it too.  About 0.5 s."""
    calls = counting_step_tables(monkeypatch)
    reads = {"tables": lambda k: k.lattice is not None,
             "depth": lambda k: k.max_closure_index,
             "join": lambda k: k.join(np.arange(len(k)), 0)}
    for make, build in ((lambda: catalog.random_c1c4(0), m3_of), (catalog.fano, m3_of),
                        (lambda: catalog.m_k(7), m3_of), (lambda: catalog.m_k(4), m4_of)):
        for first in range(3):  # each read first once
            order = list(reads)[first:] + list(reads)[:first]
            calls.clear()
            base = make()
            k = build(base)
            for read in order:
                reads[read](k)
            count, arity = len(k), k.arity
            assert calls == [(base, arity)], order
            closed = k._closed[0]
            assert closed.size == base.n ** arity < count * (count + 1) // 2
            assert (componentwise_join_keys(k) < closed.size).all()
            again = build(base)
            assert again.max_closure_index == k.max_closure_index
            assert again._closed[0] is closed and len(calls) == 1


# -- oracle: the per-pair lazy depth ----------------------------------------

def _pair_blocks(count: int, block: int):
    """The index pairs a <= b in lexicographic order, in blocks of about
    `block` pairs (a block ends after the row that fills it)."""
    rows, size = [], 0
    for a in range(count):
        rows.append(a)
        size += count - a
        if size >= block or a == count - 1:
            ia = np.repeat(np.array(rows), count - np.array(rows))
            ib = np.concatenate([np.arange(r, count) for r in rows])
            yield ia, ib
            rows, size = [], 0


def per_pair_depth(k, block=500_000):
    """Oracle for max_closure_index without tables: the route it replaced,
    which closed every pair a <= b through close_joins, in blocks."""
    return max(close_joins(k.base, k.cols, ia, ib)[1]
               for ia, ib in _pair_blocks(len(k), block))


def test_pair_blocks_cover_upper_pairs():
    ia, ib = (np.concatenate(c) for c in zip(*_pair_blocks(9, 10)))
    want_a, want_b = np.triu_indices(9)
    assert np.array_equal(ia, want_a) and np.array_equal(ib, want_b)


def test_marked_depth_matches_per_pair_oracle(monkeypatch):
    """The depth from the join keys, without tables, equals the per-pair
    route on census grids, Fano (594,595 pairs) and M4[M4].  About 0.5 s."""
    bases = [(catalog.random_c1c4(s), m3_of) for s in range(4)]
    bases += [(catalog.fano(), m3_of), (catalog.m_k(4), m4_of), (catalog.n5(), m4_of)]
    monkeypatch.setattr(construct, "EAGER_TABLE_CAP", 0)
    for base, build in bases:
        k = build(base)
        assert k.max_closure_index == per_pair_depth(k), k.name
        with pytest.raises(SizeLimitExceeded):
            k.lattice


def test_depth_stops_at_the_largest_key_index(monkeypatch):
    """The largest closure index over all n^arity keys bounds the depth,
    so the walk over the pairs stops at the first block that reaches it:
    on the 56,725-element M3[Sub(2,4)] every key closes in one round, and
    the walk reads two of the full walk's blocks of pairs: the bottom's
    row, whose joins are balanced, and the next row."""
    k = m3_of(catalog.subspace_lattice(2, 4))
    count, index = len(k), k._closed[1]
    assert count == 56_725 and index.max() == 1
    blocks, lo = 0, 0
    while lo < count:
        lo = min(count, lo + max(1, construct._MARK_ENTRIES // (count - lo)))
        blocks += 1
    calls = []
    key = construct.TupleLattice._key

    def counting(self, *args):
        calls.append(1)
        return key(self, *args)

    monkeypatch.setattr(construct.TupleLattice, "_key", counting)
    assert k.max_closure_index == 1
    assert len(calls) == 2 < blocks


def eleven():
    """0, atoms a b c, u = a v b, v = b v c, w = a v c, and x, y, z
    covering u, v, w, below 1.  x, y, z are join-irreducible with
    x ^ y = b !<= z, x ^ z = a !<= y and y ^ z = c !<= x."""
    names = ("0", "a", "b", "c", "u", "v", "w", "x", "y", "z", "1")
    at = {s: i for i, s in enumerate(names)}
    covers = [("0", "a"), ("0", "b"), ("0", "c"), ("a", "u"), ("b", "u"),
              ("b", "v"), ("c", "v"), ("a", "w"), ("c", "w"),
              ("u", "x"), ("v", "y"), ("w", "z"), ("x", "1"), ("y", "1"), ("z", "1")]
    cover_list = core.CoverList(11, tuple((at[p], at[q]) for p, q in covers), names)
    return core.from_covers(cover_list, name="eleven"), at


def test_componentwise_joins_need_not_fill_the_key_space(monkeypatch):
    """Not every key is the componentwise join of two balanced triples:
    over the 11-element lattice the joins hit 1,325 of 1,331 keys and miss
    <x, y, z>, since x, y, z are join-irreducible and no two of their
    meets lie below the third."""
    base, at = eleven()
    assert base.n == 11
    assert {base.names[j] for j in core.join_irreducibles(base)} == set("abcxyz")
    k = m3_of(base)
    keys = componentwise_join_keys(k)
    assert keys.size == 1_325 < 11 ** 3
    xyz = (at["x"] * 11 + at["y"]) * 11 + at["z"]
    assert xyz not in keys.tolist()
    depth = per_pair_depth(k)
    # the depth reads only the keys of pair joins; with this bound never
    # reached, the walk reads every block
    closed, index = k._closed
    index = index.copy()
    index[xyz] = depth + 1
    k._closed = closed, index
    assert k.max_closure_index == depth
    assert_tables_match_oracle(m3_of(base))
    monkeypatch.setattr(construct, "EAGER_TABLE_CAP", 0)
    assert m3_of(base).max_closure_index == depth


def test_marked_keys_close_a_slice_at_a_time(monkeypatch):
    """The step table is tabulated about rank._TABLE_BLOCK keys at a time,
    so the stepping working set stays bounded whatever the number of keys."""
    k = m3_of(catalog.fano())
    depth, keys = k.max_closure_index, np.arange(k.base.n ** 3)
    sizes = []
    step_columns = rank._step_columns

    def counting(lat, cols):
        out = step_columns(lat, cols)
        sizes.append(out[0].size)
        return out

    monkeypatch.setattr(rank, "_step_columns", counting)
    monkeypatch.setattr(rank, "_TABLE_BLOCK", 1000)
    monkeypatch.setattr(construct, "EAGER_TABLE_CAP", 0)
    lazy = m3_of(catalog.fano())
    assert lazy.max_closure_index == depth
    assert all(np.array_equal(a, b) for a, b in zip(lazy._closed, k._closed))
    assert sum(sizes) == keys.size and max(sizes) <= 1000 < keys.size


def test_depth_builds_no_tables(traced_peak):
    """len and the depth of a census grid build no tables, and the traced
    peak stays under count^2 int32 entries (the tables hold nine bytes a
    pair)."""
    for s in (0, 4, 10):
        base = catalog.random_c1c4(s)

        def depth():
            k = m3_of(base)
            return k, len(k), k.max_closure_index

        (k, count, d), peak = traced_peak(depth)
        assert "lattice" not in vars(k)
        assert peak < count * count * 4, (s, count, peak)
        assert k.lattice is not None and k.max_closure_index == d


def test_depth_key_mask_fails_fast_past_int32(monkeypatch):
    """A 216-element base at arity 4 has 216^4 >= 2^31 keys, and a 91-element
    one 91^4 > KEY_CAP: the depth, the operations and the id lookup of a
    tuple lattice built directly refuse before allocating a key map."""
    refuse_allocations(monkeypatch, rank.KEY_CAP)
    cols = [np.zeros(1, dtype=np.int32) for _ in range(4)]
    for n in (216, 91):
        k = construct.TupleLattice(catalog.chain(n), cols, "stub")
        for read in (lambda: k.max_closure_index, lambda: k.meet(0, 0),
                     lambda: k.join(0, 0), lambda: k.ids((0, 0, 0, 0))):
            with pytest.raises(SizeLimitExceeded, match=rf"{n}\^4 keys"):
                read()
        assert "_closed" not in vars(k)


def test_key_cap_boundary():
    """KEY_CAP = 2^26 keys admits 406^3 and 90^4 keys and refuses 407^3 and
    91^4, read off the element count alone."""
    assert rank.KEY_CAP == 2 ** 26 < 2 ** 31
    for n, arity in ((406, 3), (90, 4)):
        assert rank._key_count(SimpleNamespace(n=n, name="stub"), arity) == n ** arity
        with pytest.raises(SizeLimitExceeded, match=rf"{n + 1}\^{arity} keys"):
            rank._key_count(SimpleNamespace(n=n + 1, name="stub"), arity)


# -- oracle: the meshgrid balanced-tuple filter ------------------------------

def meshgrid_balanced_tuples(base, arity):
    """Oracle for the elements of m3_of and m4_of: all n^arity tuples as
    meshgrid columns, filtered in one mask.  Holds arity * n^arity entries
    at once."""
    n = base.n
    cols = [g.ravel().astype(np.int32) for g in
            np.meshgrid(*([np.arange(n)] * arity), indexing="ij")]
    m = base.meet_table
    ref = m[cols[0], cols[1]]
    mask = np.ones(ref.shape, dtype=bool)
    for a, b in itertools.combinations(range(arity), 2):
        if (a, b) != (0, 1):
            mask &= m[cols[a], cols[b]] == ref
    return [c[mask] for c in cols]


def test_balanced_columns_match_meshgrid_oracle():
    """The keys of closure index 0 are the balanced tuples, in
    lexicographic order."""
    bases = [lat for n in range(1, 7) for lat in catalog.enumerate_lattices(n)]
    bases += [catalog.fano(), catalog.subspace_lattice(3, 3)]
    for base in bases:
        for build in (m3_of, m4_of):
            k = build(base)
            want = meshgrid_balanced_tuples(base, k.arity)
            assert all(g.dtype == np.int32 and np.array_equal(g, w)
                       for g, w in zip(k.cols, want)), k.name


def test_build_memory_per_key_is_bounded(traced_peak):
    """m4_of and its first join hold the closure table, 12 bytes a key while
    it is built and 8 after, and the blocks' working set: under 15 bytes a
    key on M4[Sub(3,3)] (614,656 keys), where a key -> id map of the tuple
    lattice's own, beside the table, took 15.05."""
    base = catalog.subspace_lattice(3, 3)

    def build():
        k = m4_of(base)
        return k.join(0, len(k) - 1)

    peak = traced_peak(build)[1]
    assert peak <= 15 * base.n ** 4


def test_swap_check_memory_per_key_is_bounded(traced_peak):
    """The coordinate-swap check of M4[Sub(3,3)] gathers one int32 closure
    id a key and compares it with a transpose of the table: under 6 bytes a
    key beside the table, where decoding the table into coordinate columns
    took 24."""
    base = catalog.subspace_lattice(3, 3)
    k = m4_of(base)
    assert k._closed is not None  # the table is built before the trace
    peak = traced_peak(construct._check_coordinate_swaps, k)[1]
    assert peak <= 6 * base.n ** 4


def test_element_checks_run_above_the_table_cap(monkeypatch):
    """The element checks read meets and joins through the key maps, so
    they pass on M3[Sub(2,4)] (56,725 elements) without tables; only the
    tables are refused above EAGER_TABLE_CAP."""
    k = m3_of(catalog.subspace_lattice(2, 4))
    assert len(k) == 56_725
    with pytest.raises(SizeLimitExceeded):
        k.lattice
    five = construct.spanning_m3(k)
    atom, diag = construct.embed_atom(k), construct.embed_diag(k)
    assert five[0] == atom[k.base.bottom] == diag[k.base.bottom]
    assert five[-1] == diag[k.base.top] and len(set(atom)) == len(set(diag)) == k.base.n
    monkeypatch.setattr(construct, "EAGER_TABLE_CAP", 0)
    m3m3, ids = construct.m4_sublattice_in_m3m3()
    assert len(set(ids)) == 4
    with pytest.raises(SizeLimitExceeded):
        m3m3.lattice
    monkeypatch.setattr(construct, "EAGER_TABLE_CAP", 30)
    with pytest.raises(SizeLimitExceeded,
                       match=r"M3\[N5\] has 41 elements, above the table cap 30"):
        m3_of(catalog.n5()).lattice


def with_broken_joins(k, balanced=False):
    """k with the closure of every key that is not balanced, or with
    `balanced` of every key, replaced by the bottom's id.  The first breaks
    each join that is not balanced componentwise and nothing else; the
    second breaks the ids of tuples and the meets as well."""
    closed, index = k._closed
    keep = (index == 0) & (not balanced)
    k._closed = np.where(keep, closed, k.bottom).astype(closed.dtype), index
    return k


def test_verification_raises_typed_errors(monkeypatch):
    # the spanning M3 and the M4 in M3[M3] each join two tuples into one
    # that is not balanced, so broken joins alone fail them
    k = with_broken_joins(m3_of(catalog.n5()))
    assert k.meet(np.arange(len(k))[:, None], np.arange(len(k))).tolist() \
        == m3_of(catalog.n5()).lattice.meet_table.tolist()
    with pytest.raises(VerificationFailed, match="spanning M3 fails"):
        construct.spanning_m3(k)
    monkeypatch.setattr(construct, "m3_of", lambda base: with_broken_joins(m3_of(base)))
    with pytest.raises(VerificationFailed, match="join of"):
        construct.m4_sublattice_in_m3m3()
    # the embeddings' componentwise joins are balanced, so only a broken
    # balanced key fails them
    for embed in (construct.embed_atom, construct.embed_diag):
        assert embed(with_broken_joins(m3_of(catalog.n5()))) is not None
        with pytest.raises(VerificationFailed):
            embed(with_broken_joins(m3_of(catalog.n5()), balanced=True))
    # only the key <1,1,1> closes wrongly, to a sixth element <a,a,a>: the
    # pairs still span M3, the bounds fail
    k = m3_of(catalog.n5())
    a = k.base.index_of("a")
    closed, index = k._closed
    closed = closed.copy()
    closed[rank._encode(5, [k.base.top] * 3)] = k.ids((a, a, a))
    k._closed = closed, index
    with pytest.raises(VerificationFailed, match="not the bounds"):
        construct.spanning_m3(k)


def test_verification_survives_optimize_flag(run_optimized):
    script = """
        import numpy as np
        from latmod import catalog, construct, core, rank
        from latmod.errors import VerificationFailed
        m3_of = construct.m3_of

        def broken(base):
            k = m3_of(base)
            closed, index = k._closed
            k._closed = np.full_like(closed, k.bottom), index
            return k

        construct.m3_of = broken
        k = construct.m3_of(catalog.n5())
        for check in (lambda: construct.spanning_m3(k),
                      lambda: construct.embed_atom(k),
                      lambda: construct.embed_diag(k),
                      construct.m4_sublattice_in_m3m3):
            try:
                check()
            except VerificationFailed:
                print("raised")
        print("debug", __debug__)
    """
    words, err = run_optimized(script)
    assert words == ["raised"] * 4 + ["debug", "False"], err
