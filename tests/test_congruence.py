import itertools
import os
import random
import time

import numpy as np
import pytest

from latmod import catalog, cli, congruence, construct, core
from latmod.congruence import Congruence, all_congruences
from latmod.errors import ArgumentOutOfRange, SizeLimitExceeded, VerificationFailed


def brute_force_congruences(lat):
    """Oracle: every partition with the substitution property, found by
    filtering all partitions of the element set."""
    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]
            yield [[first]] + part

    found = set()
    for part in partitions(list(lat.elements())):
        ids = [0] * lat.n
        for label, block in enumerate(part):
            for e in block:
                ids[e] = label
        cand = Congruence.from_ids(ids)
        if congruence.has_substitution_property(lat, cand):
            found.add(cand.ids)
    return found


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
    return Congruence.from_ids(find(e) for e in range(lat.n))


def principal(con, a, b):
    """Oracle: con(a, b) read off the congruence lattice con, as the
    congruence with the most blocks among those collapsing a and b.  It is
    the least of them and every other one is strictly coarser, so no other
    has as many blocks."""
    cands = [c for c in con.congruences if c.same(a, b)]
    most = max(c.block_count for c in cands)
    (least,) = [c for c in cands if c.block_count == most]
    return least


def position(con, c):
    """Oracle helper: the id of the congruence c in the lattice con, by a
    linear search of its list."""
    return con.congruences.index(c)


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
    n = len(a.ids)
    uf = UnionFind(n)
    first_a, first_b = {}, {}
    for e in range(n):
        uf.union(first_a.setdefault(a.ids[e], e), e)
        uf.union(first_b.setdefault(b.ids[e], e), e)
    return Congruence.from_ids(uf.find(e) for e in range(n))


def bfs_con_lattice(lat, generators):
    """Oracle for all_congruences: a BFS from the identity that joins the
    generators by union-find until nothing new appears, sorted as
    all_congruences sorts, ordered by the refines loop over all pairs,
    with tables derived by lattice_from_leq."""
    found = {Congruence.from_ids(range(lat.n))}
    frontier = list(found)
    while frontier:
        cur = frontier.pop()
        for g in generators:
            nxt = union_find_join(cur, g)
            if nxt not in found:
                found.add(nxt)
                frontier.append(nxt)
    cons = sorted(found, key=lambda c: (c.block_count, c.ids))
    leq = np.array([[ci.refines(cj) for cj in cons] for ci in cons], dtype=bool)
    names = [f"con{i}/{c.block_count}b" for i, c in enumerate(cons)]
    return cons, core.lattice_from_leq(leq, names=names, name=f"Con({lat.name or '?'})")


def all_pairs_con_lattice(lat):
    """Oracle: bfs_con_lattice over the scalar principal congruence of every
    pair a < b instead of one generator per join-irreducible."""
    return bfs_con_lattice(lat, {scalar_generated_congruence(lat, [(a, b)])
                                 for a in lat.elements() for b in lat.elements() if a < b})


def all_pairs_congruences(lat):
    return [c.ids for c in all_pairs_con_lattice(lat)[0]]


def assert_con_lattice_matches(got, want):
    cons, lat = want
    assert got.congruences == tuple(cons)
    assert got.lattice.names == lat.names and got.lattice.name == lat.name
    for mine, theirs in ((got.lattice.leq, lat.leq), (got.lattice.meet_table, lat.meet_table),
                         (got.lattice.join_table, lat.join_table)):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


def shuffled(lat, rng):
    """The lattice renumbered by a random permutation, so that element ids
    need not follow the order (enumerate_lattices numbers bottom-up)."""
    perm = list(lat.elements())
    rng.shuffle(perm)
    return core.lattice_from_leq(lat.leq[np.ix_(perm, perm)],
                                 names=[lat.names[p] for p in perm], name=lat.name)


def assert_matches_all_pairs_oracle(max_n):
    """The down-set route equals the all-pairs BFS oracle, in congruences,
    order, names and Con tables, on every labeled lattice with at most
    max_n elements and on a seeded renumbering of each.  Tier-1 runs
    max_n = 7 (371 lattices); LATMOD_EXTENDED=1 adds max_n = 8 (4,008
    lattices)."""
    rng = random.Random(7)
    for n in range(1, max_n + 1):
        for lat in catalog.enumerate_lattices(n):
            for case in (lat, shuffled(lat, rng)):
                assert_con_lattice_matches(all_congruences(case),
                                           all_pairs_con_lattice(case))


def test_all_congruences_against_partition_oracle(lattices):
    for name in ("C2", "C3", "C4", "C2sq", "N5", "M3", "witness7"):
        lat = lattices[name]
        con = all_congruences(lat)
        assert {c.ids for c in con.congruences} == brute_force_congruences(lat)


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
    assert theta.same(b, a) and not theta.same(o, c)
    assert theta.blocks() == [[o], [b, a], [c], [i]]
    collapse = principal(con, a, i)
    # collapsing the top cover propagates down the other side and back up
    assert collapse.same(o, c) and collapse.block_count > 1
    assert collapse.blocks() == [[o, c], [b, a, i]]


def test_cover_pair_generation_agrees_with_all_pairs(lattices):
    for name in ("N5", "M4", "witness7", "B3"):
        lat = lattices[name]
        fast = [c.ids for c in all_congruences(lat).congruences]
        assert fast == all_pairs_congruences(lat)


def test_join_irreducible_generation_on_all_small_lattices():
    assert_matches_all_pairs_oracle(7)


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
    generators read off the scalar oracle."""
    rng = random.Random(11)
    for n in range(1, 8):
        for lat in catalog.enumerate_lattices(n):
            for case in (lat, shuffled(lat, rng)):
                ji, gen, below = congruence._generators(case)
                assert np.array_equal(congruence._dependency(case, ji),
                                      dependency_by_definition(case))
                gens = [scalar_generated_congruence(case, [(case.lower_covers(j)[0], j)])
                        for j in ji.tolist()]
                for a, b in itertools.product(range(len(ji)), repeat=2):
                    star = gen[a] == gen[b] or below[gen[a], gen[b]]
                    assert star == gens[a].refines(gens[b])


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
        cons = con.congruences
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
    joined = con.congruences[con.lattice.join(t1, t2)]
    assert joined.same(b, i) and joined.same(o, c) and not joined.same(o, b)
    met = con.congruences[con.lattice.meet(position(con, joined), t1)]
    assert met.ids == con.congruences[t1].ids
    assert con.congruences[t1].refines(joined) and not joined.refines(con.congruences[t1])
    for name in ("N5", "witness7", "B3", "C4"):
        con = all_congruences(lattices[name])
        cons = con.congruences
        for (x, a), (y, b) in itertools.product(enumerate(cons), repeat=2):
            assert con.lattice.le(x, y) == a.refines(b)
            assert cons[con.lattice.meet(x, y)] == Congruence.from_ids(zip(a.ids, b.ids))


def test_congruence_lattice_is_distributive(lattices):
    import numpy as np

    from latmod import core
    for name in ("C4", "N5", "witness7", "B3", "C2sq"):
        lat = lattices[name]
        cons = all_congruences(lat).congruences
        n = len(cons)
        leq = np.zeros((n, n), dtype=bool)
        for x in range(n):
            for y in range(n):
                leq[x, y] = cons[x].refines(cons[y])
        assert core.is_distributive(core.lattice_from_leq(leq))


def test_extend_then_restrict_is_identity():
    base = catalog.n5()
    k = construct.m3_of(base)
    image = construct.embed_atom(k)
    con = all_congruences(base)
    for a in base.elements():
        for b in base.elements():
            theta = principal(con, a, b)
            phi = congruence.extend_congruence(k, theta)
            back = congruence.restrict_congruence(phi, image)
            assert back.ids == theta.ids


def test_extension_preserves_whole_congruence_lattice(lattices):
    for name in ("C2", "C3", "C2sq", "N5", "M3", "M4", "witness7"):
        for emb in ("atom", "diag"):
            rep = congruence.verify_cpe(lattices[name], emb)
            assert rep.passed, (name, emb, rep)


def test_one_build_serves_both_embeddings(lattices, monkeypatch):
    for name in ("N5", "M3", "witness7"):
        pieces = congruence._cpe_pieces(lattices[name])
        for emb in ("atom", "diag"):
            assert congruence._check_cpe(*pieces, emb) == \
                congruence.verify_cpe(lattices[name], emb)
    # repro's check builds each of its eight bases once (small pieces
    # stand in for them here, to keep Fano's extension out of the test)
    built = []
    small = congruence._cpe_pieces(catalog.n5())
    monkeypatch.setattr(congruence, "_cpe_pieces",
                        lambda base: built.append(base.n) or small)
    checks = {cid: thunk for cid, _, thunk in cli._repro_checks(False, 1, 0)}
    assert checks["congruence-preserving-extension"]() is True
    assert len(built) == 8


def test_verify_cpe_rejects_unknown_embedding():
    with pytest.raises(ArgumentOutOfRange):
        congruence.verify_cpe(catalog.n5(), "bogus")


def test_extension_check_raises(monkeypatch):
    k = construct.m3_of(catalog.n5())
    monkeypatch.setattr(congruence, "has_substitution_property",
                        lambda lat, part: False)
    with pytest.raises(VerificationFailed):
        congruence.extend_congruence(k, Congruence.from_ids(range(5)))


def test_extension_check_survives_optimize_flag(run_optimized):
    script = """
        from latmod import catalog, congruence, construct
        from latmod.errors import VerificationFailed
        congruence.has_substitution_property = lambda lat, part: False
        k = construct.m3_of(catalog.n5())
        try:
            congruence.extend_congruence(k, congruence.Congruence.from_ids(range(5)))
        except VerificationFailed:
            print("debug", __debug__, "raised")
    """
    words, err = run_optimized(script)
    assert words == ["debug", "False", "raised"], err


def test_congruence_size_cap():
    with pytest.raises(SizeLimitExceeded):
        all_congruences(catalog.chain(120), cap=100)


def test_congruence_count_cap_stops_the_enumeration():
    # Con(C_n) has 2^(n-1) elements: C_11 fits under the default cap, C_12
    # does not, and C_40 (2^39) is refused after a dozen doubling steps
    assert len(all_congruences(catalog.chain(11))) == 1024
    for n in (12, 40):
        start = time.perf_counter()
        with pytest.raises(SizeLimitExceeded, match="more than 2000 congruences"):
            all_congruences(catalog.chain(n))
        assert time.perf_counter() - start < 10
    with pytest.raises(SizeLimitExceeded):
        all_congruences(catalog.chain(6), cap=31)


def test_congruence_value_object():
    c = Congruence.from_ids(["x", "x", "y", 7, 7])
    assert c.block_count == 3
    assert c.same(0, 1) and c.same(3, 4) and not c.same(1, 2)
    assert Congruence.from_ids([0, 0, 1, 2, 2]).ids == c.ids
