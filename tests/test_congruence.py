import gc
import itertools
import os
import random
import time
import weakref

import numpy as np
import pytest
from conftest import eager_con_lattice, numpy_classes, numpy_down_sets, tuples_of
from hypothesis import given, settings, strategies as st

from latmod import catalog, congruence, construct, core, rank
from latmod.congruence import all_congruences
from latmod.errors import ArgumentOutOfRange, SizeLimitExceeded, VerificationFailed

# Scalar oracles.  A congruence here is a tuple of block labels numbered by
# first occurrence, as a row of ConLattice.ids; these loops check the
# vectorized helpers of `congruence`, which act on whole label matrices.


def first_occurrence(raw) -> tuple:
    """Oracle for congruence._first_occurrence on one row: any hashable
    labels renumbered so that the blocks count 0, 1, ... by first
    occurrence."""
    remap: dict = {}
    return tuple(remap.setdefault(v, len(remap)) for v in raw)


def same(c, a, b) -> bool:
    return c[a] == c[b]


def block_count(c) -> int:
    return max(c) + 1


def blocks(c) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(block_count(c))]
    for e, b in enumerate(c):
        out[b].append(e)
    return out


def refines(c, d) -> bool:
    """Oracle: each block of c lies inside one block of d."""
    seen: dict = {}
    return all(seen.setdefault(x, y) == y for x, y in zip(c, d))


def substitution_holds(lat, c) -> bool:
    """Oracle: every congruent pair x, y has congruent meets and joins
    with every z, pair by pair."""
    meet, join = lat.meet_table.tolist(), lat.join_table.tolist()
    return all(c[meet[x][z]] == c[meet[y][z]] and c[join[x][z]] == c[join[y][z]]
               for x, y in itertools.combinations(range(lat.n), 2) if c[x] == c[y]
               for z in range(lat.n))


def rows(con) -> list[tuple]:
    """The congruences of a ConLattice as label tuples, by id."""
    return [tuple(r) for r in con.ids.tolist()]


def extend(k, theta) -> tuple:
    """Oracle: the componentwise extension of one congruence to a tuple
    lattice; two tuples are congruent iff their coordinates are, numbered
    through a dict."""
    return first_occurrence(tuple(theta[c] for c in t) for t in tuples_of(k))


def partition_cpe(k, embeddings=("atom", "diag")):
    """Oracle for verify_cpe, the partition route it replaced: Con K of
    K = M3[base] or M4[base], built with its tables, enumerated from them,
    and for each embedding
    (passed, |Con base|, |Con K|), where passed says that restriction along
    the embedding maps Con K one-to-one onto Con base, and that each
    congruence of the base extends componentwise to a congruence of K that
    restricts back to it.  Restriction and extension both keep refinement,
    so restriction is then an order isomorphism with inverse extension."""
    cons_b, cons_k = rows(all_congruences(k.base)), rows(all_congruences(k.lattice))
    ext = [extend(k, theta) for theta in cons_b]
    out = []
    for emb in embeddings:
        image = {"atom": construct.embed_atom, "diag": construct.embed_diag}[emb](k)
        restrict = lambda phi: first_occurrence(phi[e] for e in image)  # noqa: E731
        back = [restrict(phi) for phi in cons_k]
        passed = (len(set(back)) == len(back) and set(back) == set(cons_b)
                  and set(ext) <= set(cons_k)
                  and [restrict(phi) for phi in ext] == cons_b)
        out.append((passed, len(cons_b), len(cons_k)))
    return out


def partitions(n):
    """Every partition of range(n) as first-occurrence labels."""
    def grow(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in grow(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]
            yield [[first]] + part

    for part in grow(list(range(n))):
        ids = [0] * n
        for label, block in enumerate(part):
            for e in block:
                ids[e] = label
        yield first_occurrence(ids)


def brute_force_congruences(lat):
    """Oracle: every partition with the substitution property, found by
    filtering all partitions of the element set with the scalar check."""
    return {c for c in partitions(lat.n) if substitution_holds(lat, c)}


def scalar_generated_congruence(lat, pairs):
    """Oracle: least congruence collapsing the given pairs, by a scalar
    union-find worklist that re-merges the meet/join rows of every merged
    pair element by element."""
    parent = list(range(lat.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[max(ra, rb)] = min(ra, rb)
        return True

    queue = [p for p in pairs if union(*p)]
    while queue:
        u, v = queue.pop()
        for table in (lat.meet_table, lat.join_table):
            for x, y in zip(table[u].tolist(), table[v].tolist()):
                if union(x, y):
                    queue.append((x, y))
    return first_occurrence(find(e) for e in range(lat.n))


def principal(con, a, b):
    """Oracle: con(a, b) read off the congruence lattice con, as the
    congruence with the most blocks among those collapsing a and b.  It is
    the least of them and every other one is strictly coarser, so no other
    has as many blocks."""
    cands = [c for c in rows(con) if same(c, a, b)]
    most = max(block_count(c) for c in cands)
    (least,) = [c for c in cands if block_count(c) == most]
    return least


def position(con, c):
    """Oracle helper: the id of the congruence c in the lattice con, by a
    linear search of its list."""
    return rows(con).index(c)


class UnionFind:
    """Oracle helper: scalar union-find with path halving."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def union_find_join(a, b):
    """Oracle: the join of two partitions by scalar union-find, linking
    each element to the first element of its block in either."""
    n = len(a)
    uf = UnionFind(n)
    first_a, first_b = {}, {}
    for e in range(n):
        uf.union(first_a.setdefault(a[e], e), e)
        uf.union(first_b.setdefault(b[e], e), e)
    return first_occurrence(uf.find(e) for e in range(n))


def bfs_con_lattice(lat, generators):
    """Oracle for all_congruences: a BFS from the identity that joins the
    generators by union-find until nothing new appears, sorted as
    all_congruences sorts, ordered by the refines loop over all pairs,
    with tables derived by lattice_from_leq."""
    found = {first_occurrence(range(lat.n))}
    frontier = list(found)
    while frontier:
        cur = frontier.pop()
        for g in generators:
            nxt = union_find_join(cur, g)
            if nxt not in found:
                found.add(nxt)
                frontier.append(nxt)
    cons = sorted(found, key=lambda c: (block_count(c), c))
    leq = np.array([[refines(ci, cj) for cj in cons] for ci in cons], dtype=bool)
    names = [f"con{i}/{block_count(c)}b" for i, c in enumerate(cons)]
    return cons, core.lattice_from_leq(leq, names=names, name=f"Con({lat.name or '?'})")


def all_pairs_con_lattice(lat):
    """Oracle: bfs_con_lattice over the scalar principal congruence of every
    pair a < b instead of one generator per join-irreducible."""
    return bfs_con_lattice(lat, {scalar_generated_congruence(lat, [(a, b)])
                                 for a in lat.elements() for b in lat.elements() if a < b})


def all_pairs_congruences(lat):
    return all_pairs_con_lattice(lat)[0]


def assert_con_lattice_matches(got, want):
    cons, lat = want
    assert got.ids.dtype == np.int32 and rows(got) == cons
    assert got.lattice.names == lat.names and got.lattice.name == lat.name
    for mine, theirs in ((got.lattice.leq, lat.leq), (got.lattice.meet_table, lat.meet_table),
                         (got.lattice.join_table, lat.join_table)):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


def assert_same_con(got, want):
    """Two ConLattices with the same ids, tables and names."""
    assert np.array_equal(got.ids, want.ids)
    a, b = got.lattice, want.lattice
    for table in ("leq", "meet_table", "join_table"):
        assert np.array_equal(getattr(a, table), getattr(b, table)), table
    assert (a.names, a.name) == (b.names, b.name)


def shuffled(lat, rng):
    """The lattice renumbered by a random permutation, so that element ids
    need not follow the order (enumerate_lattices numbers bottom-up)."""
    perm = list(lat.elements())
    rng.shuffle(perm)
    return core.lattice_from_leq(lat.leq[np.ix_(perm, perm)],
                                 names=[lat.names[p] for p in perm], name=lat.name)


def small_cases(max_n, seed):
    """Every labeled lattice with at most max_n elements and a seeded
    renumbering of each: 371 lattices up to 7 elements, 4,008 up to 8."""
    rng = random.Random(seed)
    for n in range(1, max_n + 1):
        for lat in catalog.enumerate_lattices(n):
            yield lat
            yield shuffled(lat, rng)


def assert_matches_all_pairs_oracle(max_n):
    """The down-set route equals the all-pairs BFS oracle, in congruences,
    order, names and Con tables, and the eager route it replaced in ids,
    tables and names, on every labeled lattice with at most max_n elements
    and on a seeded renumbering of each.  Tier-1 runs max_n = 7 (371
    lattices); LATMOD_EXTENDED=1 adds max_n = 8 (4,008 lattices)."""
    for case in small_cases(max_n, 7):
        con = all_congruences(case)
        assert_con_lattice_matches(con, all_pairs_con_lattice(case))
        assert_same_con(con, eager_con_lattice(case))


def assert_dual_has_the_same_congruences(max_n):
    """Con L^op = Con L as sets of partitions, L^op the transposed order
    with the same element ids, on every lattice with at most max_n elements
    and a renumbering of each.  The two routes share only the order: one
    runs on J(L), the other on the meet-irreducibles of L.  Both sort the
    partitions the same way, so their ids are equal."""
    for case in small_cases(max_n, 17):
        dual = core.lattice_from_leq(case.leq.T)
        assert np.array_equal(all_congruences(dual).ids, all_congruences(case).ids), \
            case.leq.tolist()


def test_dual_has_the_same_congruences():
    assert_dual_has_the_same_congruences(7)


@pytest.mark.skipif(not os.environ.get("LATMOD_EXTENDED"),
                    reason="4,008 lattices and renumberings; set LATMOD_EXTENDED=1")
def test_dual_has_the_same_congruences_up_to_8():
    assert_dual_has_the_same_congruences(8)


def test_con_lattice_matches_eager_oracle_on_larger_lattices():
    """M3[N5] and M3[M4], through their operations and through their
    tables, and B10 (1,024 congruences): the same ids, tables and names as
    the eager route."""
    for k in (construct.m3_of(catalog.n5()), construct.m3_of(catalog.m_k(4))):
        for lat in (k, k.lattice):
            assert_same_con(all_congruences(lat), eager_con_lattice(lat))
    b10 = catalog.boolean(10)
    con = all_congruences(b10)
    assert len(con) == 1024
    assert_same_con(con, eager_con_lattice(b10))


def test_con_tables_are_built_on_first_read(monkeypatch):
    """all_congruences builds no tables of Con L: its length and ids are
    read with the table walk refused.  The first read of `lattice` gives
    the eager oracle's tables, and later reads the same object.  A dropped
    ConLattice is collected."""
    lat = catalog.witness7()

    def refuse(*args):
        raise AssertionError("the tables of Con L were built")

    with monkeypatch.context() as patched:
        patched.setattr(congruence, "_down_set_index", refuse)
        con = all_congruences(lat)
        assert len(con) == 5 and con.ids.shape == (5, lat.n)
        assert "lattice" not in vars(con)
    assert_same_con(con, eager_con_lattice(lat))
    assert con.lattice is con.lattice
    ref = weakref.ref(con)
    del con
    gc.collect()
    assert ref() is None


def dependency_cases():
    """Relations D without their diagonal: empty, one element, and at
    sizes on both sides of a byte and a 64-bit word, chains both ways,
    disjoint 2-cycles, full, empty and a seeded random one."""
    rng = np.random.default_rng(5)
    yield np.zeros((0, 0), dtype=bool)
    yield np.zeros((1, 1), dtype=bool)
    for n in (2, 3, 8, 9, 64, 65):
        pairs = np.zeros((n, n), dtype=bool)
        even = np.arange(0, n - 1, 2)
        pairs[even, even + 1] = pairs[even + 1, even] = True
        yield from (np.eye(n, k=1, dtype=bool), np.eye(n, k=-1, dtype=bool), pairs,
                    ~np.eye(n, dtype=bool), np.zeros((n, n), dtype=bool),
                    (rng.random((n, n)) < 2 / n) & ~np.eye(n, dtype=bool))


def assert_classes_match_numpy_oracle(dep):
    """`_classes` and `_down_sets` equal their numpy oracles on dep, the
    down-sets with the same children, or both raise SizeLimitExceeded."""
    gen, below = congruence._classes(dep.copy())
    want_gen, want_below = numpy_classes(dep.copy())
    assert gen.dtype == want_gen.dtype and np.array_equal(gen, want_gen)
    assert below.dtype == bool and np.array_equal(below, want_below)
    try:
        want_bits, want_children = numpy_down_sets(below)
    except SizeLimitExceeded:
        with pytest.raises(SizeLimitExceeded):
            congruence._down_sets(below)
        return
    bits, children = congruence._down_sets(below)
    assert bits.dtype == bool and np.array_equal(bits, want_bits)
    assert len(children) == len(want_children)
    for mine, theirs in zip(children, want_children):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


def test_classes_and_down_sets_match_numpy_oracles():
    for dep in dependency_cases():
        assert_classes_match_numpy_oracle(dep)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 20).flatmap(lambda n: st.lists(
    st.booleans(), min_size=n * n, max_size=n * n).map(
        lambda cells: np.array(cells, dtype=bool).reshape(n, n))))
def test_classes_and_down_sets_match_numpy_oracles_on_drawn_relations(dep):
    np.fill_diagonal(dep, False)
    assert_classes_match_numpy_oracle(dep)


def test_down_sets_stop_at_the_cap(monkeypatch, traced_peak):
    """11 incomparable generators have 2,048 down-sets: refused before the
    step that would pass CON_SIZE_CAP is taken, and so are 16, whose 65,536
    down-sets would hold far more than the traced bound of 100 bytes a
    down-set at the cap.  At a cap of 2,048 the 11 all fit."""
    def refused(m):
        with pytest.raises(SizeLimitExceeded, match="more than 2000 congruences"):
            congruence._down_sets(np.zeros((m, m), dtype=bool))

    for m in (11, 16):
        assert traced_peak(refused, m)[1] < 100 * congruence.CON_SIZE_CAP
    monkeypatch.setattr(congruence, "CON_SIZE_CAP", 2048)
    bits, children = congruence._down_sets(np.zeros((11, 11), dtype=bool))
    assert bits.shape == (2048, 11) and len(children) == 11


def test_all_congruences_against_partition_oracle(lattices):
    for name in ("C2", "C3", "C4", "C2sq", "N5", "M3", "witness7"):
        lat = lattices[name]
        con = all_congruences(lat)
        assert set(rows(con)) == brute_force_congruences(lat)


def test_chain_congruence_counts():
    # a chain with n-1 covers has one congruence per subset of its covers
    for n in range(1, 7):
        con = all_congruences(catalog.chain(n))
        assert len(con) == 2 ** max(n - 1, 0)


def test_known_congruence_counts(lattices):
    sizes = {name: len(all_congruences(lat)) for name, lat in lattices.items()
             if lat.n <= 9}
    assert sizes["M3"] == 2 and sizes["M4"] == 2  # simple lattices
    assert sizes["N5"] == 5
    assert sizes["witness7"] == 5
    assert sizes["C2sq"] == 4
    assert sizes["B3"] == 8


def test_principal_congruence_examples():
    n5 = catalog.n5()
    o, b, a, c, i = (n5.index_of(s) for s in "obaci")
    con = all_congruences(n5)
    theta = principal(con, b, a)
    assert same(theta, b, a) and not same(theta, o, c)
    assert blocks(theta) == [[o], [b, a], [c], [i]]
    collapse = principal(con, a, i)
    # collapsing the top cover propagates down the other side and back up
    assert same(collapse, o, c) and block_count(collapse) > 1
    assert blocks(collapse) == [[o, c], [b, a, i]]


def test_cover_pair_generation_agrees_with_all_pairs(lattices):
    for name in ("N5", "M4", "witness7", "B3"):
        lat = lattices[name]
        fast = rows(all_congruences(lat))
        assert fast == all_pairs_congruences(lat)


def test_join_irreducible_generation_on_all_small_lattices():
    assert_matches_all_pairs_oracle(7)


def degree_pairs(leq):
    """Oracle: the sorted (lower covers, upper covers) counts of each
    element of the order leq, its covers the strict pairs with nothing
    strictly between, found by one product."""
    strict = (leq & ~np.eye(len(leq), dtype=bool)).astype(np.int64)
    cover = (strict > 0) & (strict @ strict == 0)
    return sorted(zip(cover.sum(axis=0).tolist(), cover.sum(axis=1).tolist()))


def test_generator_order_is_the_order_of_con_join_irreducibles():
    """generator_order gives |J(Con L)| and the covers of its order, read
    off Con L: the same count, cover count and cover degrees, on every
    lattice with at most 6 elements and on M3[N5] and M3[witness7]."""
    bases = [lat for n in range(1, 7) for lat in catalog.enumerate_lattices(n)]
    bases += [construct.m3_of(catalog.n5()), construct.m3_of(catalog.witness7())]
    for lat in bases:
        count, covers = congruence.generator_order(lat)
        con = all_congruences(lat).lattice
        ji = core.join_irreducibles(con)
        leq = np.eye(count, dtype=bool)
        if covers:
            leq[tuple(np.array(covers).T)] = True
        assert count == len(ji) and all(lo < hi for lo, hi in covers), lat.name
        assert degree_pairs(leq) == degree_pairs(con.leq[np.ix_(ji, ji)]), lat.name


def test_generator_order_of_one_element():
    """C1 has no join-irreducibles, so no generators: its empty generator
    order goes through the cover index like any other."""
    assert congruence.generator_order(catalog.chain(1)) == (0, [])


@pytest.mark.skipif(not os.environ.get("LATMOD_EXTENDED"),
                    reason="4,008 lattices and renumberings; set LATMOD_EXTENDED=1")
def test_join_irreducible_generation_on_all_lattices_up_to_8():
    assert_matches_all_pairs_oracle(8)


def dependency_by_definition(lat):
    """Oracle for congruence._dependency: j D k iff j != k and some x has
    j <= k v x and j !<= k_ v x, tested for every (j, k, x) at once."""
    ji = core.join_irreducibles(lat)
    lower = [lat.lower_covers(k)[0] for k in ji]
    j = np.array(ji, dtype=np.intp)[:, None, None]
    hi, lo = lat.join_table[ji][None], lat.join_table[lower][None]
    dep = (lat.leq[j, hi] & ~lat.leq[j, lo]).any(axis=2)
    np.fill_diagonal(dep, False)
    return dep


def test_dependency_relation_matches_its_definition():
    """On every lattice with at most 7 elements and a renumbering of each,
    D equals its definition over all x, and D* equals the order of the
    generators read off the scalar oracle.  On M3 of each, J(M3) is the
    three copies of J and the copies' D is its definition on the tables;
    Con M3, read through M3's operations, is the Con of its tables (the
    oracle route), with the same ids, tables and names; and verify_cpe
    agrees with the partition oracle for both embeddings."""
    for case in small_cases(7, 11):
        ji, gen, below = congruence._generators(case)
        assert np.array_equal(congruence._dependency(case, ji),
                              dependency_by_definition(case))
        gens = [scalar_generated_congruence(case, [(case.lower_covers(j)[0], j)])
                for j in ji.tolist()]
        for a, b in itertools.product(range(len(ji)), repeat=2):
            star = gen[a] == gen[b] or below[gen[a], gen[b]]
            assert star == refines(gens[a], gens[b])
        k = construct.m3_of(case)
        assert_same_con(all_congruences(k), all_congruences(k.lattice))
        jk = congruence._copies(k, ji)
        want = core.join_irreducibles(k.lattice)
        assert sorted(jk.tolist()) == want
        at = np.searchsorted(want, jk)
        lower = np.array([case.lower_covers(j)[0] for j in ji], dtype=np.intp)
        assert np.array_equal(congruence._copy_dependency(k, ji, lower),
                              dependency_by_definition(k.lattice)[np.ix_(at, at)])
        got = [congruence.verify_cpe(case, emb) for emb in ("atom", "diag")]
        assert [(r.passed, r.base_con_count, r.ext_con_count) for r in got] \
            == partition_cpe(k)


def assert_m4_cpe_matches_partition_oracle(n):
    """verify_cpe on M4[L], read through M4[L]'s operations at arity 4,
    agrees with the partition oracle on M4[L]'s tables, for both
    embeddings, on every lattice L with n elements and a renumbering of
    each."""
    rng = random.Random(13)
    for lat in catalog.enumerate_lattices(n):
        for case in (lat, shuffled(lat, rng)):
            k = construct.m4_of(case)
            got = [congruence.verify_cpe(case, emb, k) for emb in ("atom", "diag")]
            assert [(r.passed, r.base_con_count, r.ext_con_count) for r in got] \
                == partition_cpe(k), (n, case.leq.tolist())


def test_m4_cpe_matches_partition_oracle():
    """The 51 lattices with at most 6 elements and their renumberings, 102
    cases: all pass, as the oracle says."""
    for n in range(1, 7):
        assert_m4_cpe_matches_partition_oracle(n)


@pytest.mark.skipif(not os.environ.get("LATMOD_EXTENDED"),
                    reason="320 lattices and renumberings; set LATMOD_EXTENDED=1")
def test_m4_cpe_matches_partition_oracle_at_7():
    assert_m4_cpe_matches_partition_oracle(7)


def test_verify_cpe_checks_m4_at_its_own_arity(monkeypatch):
    """A given M4[L] is checked as it is: no M3[L] is built in its place.
    A tuple lattice over another base is refused."""
    def refuse(base):
        raise AssertionError("M3 was built")

    monkeypatch.setattr(congruence, "m3_of", refuse)
    for base, count in ((catalog.n5(), 5), (catalog.witness7(), 5), (catalog.chain(3), 4)):
        k = construct.m4_of(base)
        for emb in ("atom", "diag"):
            rep = congruence.verify_cpe(base, emb, k)
            assert (rep.passed, rep.base_con_count, rep.ext_con_count) == (True, count, count)
    with pytest.raises(ArgumentOutOfRange, match="not over"):
        congruence.verify_cpe(catalog.n5(), "atom", construct.m4_of(catalog.chain(3)))


def test_dependency_counts_do_not_wrap():
    # in M_258 each atom j depends on each other atom k through the 256
    # atoms m != j, k: a uint8 count of them would wrap to 0
    lat = catalog.m_k(258)
    dep = congruence._dependency(lat, np.array(core.join_irreducibles(lat)))
    assert dep.sum() == 258 * 257
    assert len(all_congruences(lat)) == 2


def test_dependency_memory_is_bounded(traced_peak):
    """D is a product of two |J| x |M| arrow matrices, so its working set
    (float32 copies of those and of the |J| x |J| result, and their bool
    forms) stays within 16 bytes per entry of |J| x (|J| + n).  The
    oracle's |J|^2 * n mask (27 MB on M_300) breaks that bound."""
    lat = catalog.m_k(300)
    ji = np.array(core.join_irreducibles(lat))
    bound = 16 * len(ji) * (len(ji) + lat.n)
    assert traced_peak(congruence._dependency, lat, ji)[1] <= bound
    assert traced_peak(dependency_by_definition, lat)[1] > bound


def all_copies_dependency(k, ji, lower):
    """Oracle for congruence._copy_dependency: the same marked-pair route with
    every copy of J(base), in each coordinate, joined with every element,
    and no coordinate symmetry used."""
    n, nj = k.base.n, len(ji)
    jk, low = congruence._copies(k, ji), congruence._copies(k, lower)
    every, rows = np.arange(len(k)), max(1, construct._GRID_ENTRIES // len(k))
    above = k.base.leq[ji]
    above32 = above.astype(np.float32)
    dep = np.empty((len(jk), len(jk)), dtype=bool)
    for lo in range(0, len(jk), rows):
        part = slice(lo, lo + rows)
        up, down = k.join(jk[part, None], every), k.join(low[part, None], every)
        for c, col in enumerate(k.cols):
            marked = np.zeros((n, len(up), n), dtype=np.float32)
            marked[col[up], np.arange(len(up))[:, None], col[down]] = 1
            reach = (above32 @ marked.reshape(n, -1)).reshape(nj, len(up), n)
            dep[c * nj:(c + 1) * nj, part] = ((reach > 0) & ~above[:, None]).any(axis=2)
    np.fill_diagonal(dep, False)
    return dep


def base_generators(base):
    ji = np.array(core.join_irreducibles(base), dtype=np.intp)
    return ji, np.array([base.lower_covers(j)[0] for j in ji], dtype=np.intp)


def test_copy_dependency_matches_all_copies_oracle():
    """Joining only the copies in coordinate 0 and swapping coordinates
    gives the route that joins every copy, on M3 and M4 of every lattice
    with at most 7 elements and on M3[Sub(2,4)] (45 copies, 56,725
    elements).  Up to 6 elements, and on Sub(2,4), D between copies in one
    coordinate is D between copies in two: only ten lattices with 7
    elements tell the column blocks apart, and so see the swap."""
    bases = [lat for n in range(1, 8) for lat in catalog.enumerate_lattices(n)]
    cases = [build(base) for base in bases for build in (construct.m3_of, construct.m4_of)]
    for k in cases + [construct.m3_of(catalog.subspace_lattice(2, 4))]:
        ji, lower = base_generators(k.base)
        assert np.array_equal(congruence._copy_dependency(k, ji, lower),
                              all_copies_dependency(k, ji, lower)), k.name


def test_copy_dependency_checks_the_coordinate_symmetry():
    """A closure map that breaks the coordinate symmetry in a key that no
    join of a copy in coordinate 0 reads is caught before D is formed."""
    base = catalog.n5()
    k = construct.m3_of(base)
    ji, lower = base_generators(base)
    closed, index = k._closed
    o, top = base.bottom, base.top
    key = int(rank._encode(base.n, [o, top, o]))  # <0,1,0>: first coordinate 0
    assert closed[key] != closed[-1]
    closed = closed.copy()
    closed[key] = closed[-1]  # <0,1,0> closes to <1,1,1>
    k._closed = closed, index
    with pytest.raises(VerificationFailed, match="swapping coordinates 0 and 1"):
        congruence._copy_dependency(k, ji, lower)


@pytest.mark.parametrize("name, shuffle", [("n5", False), ("n5", True), ("m4", False),
                                           ("witness7", False)])
def test_down_set_route_matches_bfs_oracle_on_m3(name, shuffle):
    k = construct.m3_of(catalog.by_name(name)).lattice
    if shuffle:
        k = shuffled(k, random.Random(3))
    generators = {scalar_generated_congruence(k, [(k.lower_covers(j)[0], j)])
                  for j in core.join_irreducibles(k)}
    assert_con_lattice_matches(all_congruences(k), bfs_con_lattice(k, generators))


@pytest.mark.parametrize("name, covers, generators",
                         [("n5", 96, 9), ("m4", 312, 12), ("witness7", 222, 12)])
def test_principal_congruence_matches_scalar_oracle(name, covers, generators):
    k = construct.m3_of(catalog.by_name(name)).lattice
    assert len(k.covers()) == covers
    assert len(core.join_irreducibles(k)) == generators
    con = all_congruences(k)
    for a, b in k.covers():
        assert principal(con, a, b) == scalar_generated_congruence(k, [(a, b)])


def test_join_of_congruences_matches_union_find_oracle(lattices):
    for name in ("N5", "witness7", "B3", "C4"):
        con = all_congruences(lattices[name])
        cons = rows(con)
        for (x, a), (y, b) in itertools.product(enumerate(cons), repeat=2):
            assert cons[con.lattice.join(x, y)] == union_find_join(a, b)


def test_join_and_meet_of_congruences(lattices):
    """The Con L join and meet on N5's example, and on every pair of four
    lattices the meet is the common refinement and the order is refines."""
    n5 = catalog.n5()
    o, b, a, c, i = (n5.index_of(s) for s in "obaci")
    con = all_congruences(n5)
    t1 = position(con, principal(con, b, a))
    t2 = position(con, principal(con, a, i))
    cons = rows(con)
    joined = cons[con.lattice.join(t1, t2)]
    assert same(joined, b, i) and same(joined, o, c) and not same(joined, o, b)
    assert cons[con.lattice.meet(position(con, joined), t1)] == cons[t1]
    assert refines(cons[t1], joined) and not refines(joined, cons[t1])
    for name in ("N5", "witness7", "B3", "C4"):
        con = all_congruences(lattices[name])
        cons = rows(con)
        for (x, a), (y, b) in itertools.product(enumerate(cons), repeat=2):
            assert con.lattice.le(x, y) == refines(a, b)
            assert cons[con.lattice.meet(x, y)] == first_occurrence(zip(a, b))


def test_congruence_lattice_is_distributive(lattices):
    for name in ("C4", "N5", "witness7", "B3", "C2sq"):
        cons = rows(all_congruences(lattices[name]))
        leq = np.array([[refines(c, d) for d in cons] for c in cons])
        assert core.is_distributive(core.lattice_from_leq(leq))


def test_extend_then_restrict_is_identity():
    # the componentwise extension of each congruence of the base is a
    # congruence of M3[base], and restricts back to it along either embedding
    for name in ("n5", "m4", "witness7"):
        base = catalog.by_name(name)
        k = construct.m3_of(base)
        for image in (construct.embed_atom(k), construct.embed_diag(k)):
            for theta in rows(all_congruences(base)):
                phi = extend(k, theta)
                assert substitution_holds(k.lattice, phi)
                assert first_occurrence(phi[e] for e in image) == theta


def test_extension_preserves_whole_congruence_lattice(lattices):
    for name in ("C2", "C3", "C2sq", "N5", "M3", "M4", "witness7"):
        for emb in ("atom", "diag"):
            rep = congruence.verify_cpe(lattices[name], emb)
            assert rep.passed, (name, emb, rep)


def with_dependency(monkeypatch, change):
    """verify_cpe with change(dep, nj) applied to the dependency relation of
    M3[base] it computes (nj is |J(base)|)."""
    real = congruence._copy_dependency

    def changed(k, ji, lower):
        dep = real(k, ji, lower)
        change(dep, len(ji))
        return dep

    monkeypatch.setattr(congruence, "_copy_dependency", changed)


def test_cpe_report_flags_tampered_pieces(monkeypatch):
    """Each clause of the report can fail.  With the dependency relation of
    M3[base] emptied, each copy of a join-irreducible is its own class:
    over M3 the diagonal image of an atom is above three of them, so its
    image is not principal; over N5 the atom image is principal but hits
    3 of 9 classes, and loses the order b < a of N5's generators.  With it
    full, all of J(M3[N5]) is one class, which reflects no order."""
    def empty(dep, nj):
        dep[:] = False

    with_dependency(monkeypatch, empty)
    rep = congruence.verify_cpe(catalog.m_k(3), "diag")
    assert not rep.passed and not rep.images_principal
    rep = congruence.verify_cpe(catalog.n5(), "atom")
    assert rep.images_principal and (rep.base_con_count, rep.ext_con_count) == (5, 2 ** 9)
    assert not rep.bijective and not rep.order_preserved and rep.order_reflected

    def full(dep, nj):
        dep[:] = True

    with_dependency(monkeypatch, full)
    rep = congruence.verify_cpe(catalog.n5(), "atom")
    assert rep.images_principal and rep.order_preserved
    assert not rep.bijective and not rep.order_reflected and rep.ext_con_count == 2


def test_verify_cpe_rejects_unknown_embedding():
    with pytest.raises(ArgumentOutOfRange):
        congruence.verify_cpe(catalog.n5(), "bogus")


def tampered_m3(monkeypatch, key, to):
    """verify_cpe with M3[base]'s closure table sending `key` to the id `to`:
    a changed copy, as the base's closure table is shared and read-only."""
    def m3_of(base):
        k = construct.m3_of(base)
        closed, index = k._closed
        closed = closed.copy()
        closed[key] = to
        k._closed = closed, index
        return k

    monkeypatch.setattr(congruence, "m3_of", m3_of)


def cpe_outcome(base, embedding):
    try:
        return congruence.verify_cpe(base, embedding).passed
    except VerificationFailed:
        return "raised"


def test_extension_check_raises(monkeypatch):
    # the extension of a partition that is no congruence of the base is no
    # congruence of M3[N5]; a closure table that sends the bottom's key to
    # the top's id breaks either embedding (the key is balanced, so the
    # bottom's id and the meets break with the joins), and the check raises
    n5 = catalog.n5()
    k = construct.m3_of(n5)
    (part,) = n5_non_congruence().tolist()
    assert not substitution_holds(n5, part)
    assert not substitution_holds(k.lattice, extend(k, part))
    tampered_m3(monkeypatch, int(rank._encode(n5.n, [n5.bottom] * 3)), len(k) - 1)
    for emb in ("atom", "diag"):
        with pytest.raises(VerificationFailed):
            congruence.verify_cpe(n5, emb)


def test_cpe_fails_on_one_wrong_closed_key(monkeypatch):
    """Sending the key of any one unbalanced triple over N5 to the top's id,
    instead of to its closure's, makes the check fail or raise, for either
    embedding: such a key breaks joins only.  (Some balanced keys high up,
    such as <b,b,b> and <b,b,1>, can be sent to the top without changing D*
    on J(M3[N5]).)"""
    n5 = catalog.n5()
    k = construct.m3_of(n5)
    closed, index = k._closed
    top = len(k) - 1
    for key in np.flatnonzero((index > 0) & (closed != top)).tolist():
        tampered_m3(monkeypatch, key, top)
        assert cpe_outcome(n5, "atom") in (False, "raised"), key
        assert cpe_outcome(n5, "diag") in (False, "raised"), key


def test_cpe_fails_on_a_dropped_dependency(monkeypatch):
    """Over N5 and C3 no single dropped pair of D on J(M3[L]) changes its
    closure D*, so no such mutant can fail the check: the six coordinate
    permutations are automorphisms of M3[L], their images of the pair stay
    in D, and the closure routes around it.  Dropped with all those images,
    the pairs between the copies of any one join-irreducible make the check
    fail."""
    for base in (catalog.n5(), catalog.chain(3)):
        k = construct.m3_of(base)
        ji = np.array(core.join_irreducibles(base))
        lower = np.array([base.lower_covers(j)[0] for j in ji])
        dep = congruence._copy_dependency(k, ji, lower)
        want = [a.tolist() for a in congruence._classes(dep.copy())]
        for b, c in np.argwhere(dep).tolist():
            fewer = dep.copy()
            fewer[b, c] = False
            assert [a.tolist() for a in congruence._classes(fewer)] == want
        for a in range(len(ji)):
            def drop(dep, nj, a=a):
                dep[a::nj, a::nj] = False

            with_dependency(monkeypatch, drop)
            assert not congruence.verify_cpe(base, "atom").passed, (base.name, a)
            assert not congruence.verify_cpe(base, "diag").passed, (base.name, a)


def n5_non_congruence():
    """A partition of N5 that is no congruence: it collapses o and b only,
    though o v c = c and b v c = i are then congruent."""
    n5 = catalog.n5()
    o, b = n5.index_of("o"), n5.index_of("b")
    return congruence._first_occurrence(
        np.array([[o if e == b else e for e in range(n5.n)]]))


def test_extension_check_survives_optimize_flag(run_optimized):
    script = """
        from latmod import catalog, congruence
        from latmod.errors import VerificationFailed
        n5 = catalog.n5()
        real_m3, real_dep = congruence.m3_of, congruence._copy_dependency

        def m3_of(base):
            k = real_m3(base)
            closed, index = k._closed
            closed = closed.copy()  # the base's table is shared and read-only
            closed[0] = closed[-1]  # the bottom's key takes the top's id
            k._closed = closed, index
            return k

        congruence.m3_of = m3_of
        try:
            congruence.verify_cpe(n5)
        except VerificationFailed:
            print("raised")
        congruence.m3_of = real_m3

        def dropped(k, ji, lower):
            dep = real_dep(k, ji, lower)
            dep[::len(ji), ::len(ji)] = False  # the copies of ji[0] fall apart
            return dep

        congruence._copy_dependency = dropped
        print("passed", congruence.verify_cpe(n5).passed)
        print("debug", __debug__)
    """
    words, err = run_optimized(script)
    assert words == ["raised", "passed", "False", "debug", "False"], err


def test_congruence_size_cap(monkeypatch):
    monkeypatch.setattr(congruence, "CON_SIZE_CAP", 100)
    with pytest.raises(SizeLimitExceeded):
        all_congruences(catalog.chain(120))


def test_congruence_count_cap_stops_the_enumeration(monkeypatch):
    # Con(C_n) has 2^(n-1) elements: C_11 fits under the default cap, C_12
    # does not, and C_40 (2^39) and C_1500 are refused after a dozen doubling
    # steps
    assert len(all_congruences(catalog.chain(11))) == 1024
    for n in (12, 40, 1500):
        start = time.perf_counter()
        with pytest.raises(SizeLimitExceeded, match="more than 2000 congruences"):
            all_congruences(catalog.chain(n))
        assert time.perf_counter() - start < 10
    monkeypatch.setattr(congruence, "CON_SIZE_CAP", 31)
    with pytest.raises(SizeLimitExceeded):
        all_congruences(catalog.chain(6))


def test_congruence_value_object():
    # a congruence is a row of first-occurrence labels
    c = first_occurrence(["x", "x", "y", 7, 7])
    assert c == (0, 0, 1, 2, 2) and block_count(c) == 3
    assert same(c, 0, 1) and same(c, 3, 4) and not same(c, 1, 2)
    assert blocks(c) == [[0, 1], [2], [3, 4]]
    assert congruence._first_occurrence(np.array([[9, 9, -4, 70, 70]])).tolist() == [list(c)]


def test_first_occurrence_matches_scalar_oracle():
    """Random label rows, with labels below 0 and above n, are numbered
    as the scalar oracle numbers them; every Con L row of the lattices
    with at most 7 elements is already numbered, and is found again from
    its labels scrambled by an injective map."""
    rng = np.random.default_rng(13)
    for n in range(1, 13):
        for spread in (1, n, 5 * n):
            labels = rng.integers(-spread, spread + 1, size=(20, n))
            got = congruence._first_occurrence(labels)
            assert got.dtype == np.int32
            assert [tuple(r) for r in got.tolist()] == [first_occurrence(r) for r in labels.tolist()]
    for n in range(1, 8):
        for lat in catalog.enumerate_lattices(n):
            ids = all_congruences(lat).ids
            scramble = rng.permutation(3 * n)[:n] + 2 * n
            assert np.array_equal(congruence._first_occurrence(ids), ids)
            assert np.array_equal(congruence._first_occurrence(scramble[ids]), ids)
