from functools import reduce

import numpy as np
import pytest

from conftest import interval
from latmod import catalog, core, rank
from latmod.catalog import GridDecoration
from latmod.errors import (
    ArgumentOutOfRange,
    DecorationConflict,
    SizeLimitExceeded,
)


def test_standard_lattices():
    assert catalog.chain(4).n == 4
    assert catalog.boolean(0).n == 1
    assert catalog.boolean(3).n == 8
    assert catalog.m_k(3).n == 5
    assert catalog.m_k(4).n == 6
    assert catalog.n5().n == 5
    assert core.find_isomorphism(catalog.c2sq(),
                                 catalog.boolean(2)) is not None
    for bad in (lambda: catalog.chain(0), lambda: catalog.boolean(-1),
                lambda: catalog.m_k(2)):
        with pytest.raises(ArgumentOutOfRange):
            bad()


def test_every_catalog_lattice_validates(lattices):
    for lat in lattices.values():
        lat.validate()


def test_fano_structure():
    f = catalog.fano()
    assert f.n == 16
    assert f.names[f.join(f.index_of("1"), f.index_of("2"))] == "124"
    assert f.names[f.meet(f.index_of("124"), f.index_of("235"))] == "2"
    # any two points span a line; any two lines meet in a point
    for p in "1234567":
        for q in "1234567":
            if p != q:
                line = f.names[f.join(f.index_of(p), f.index_of(q))]
                assert len(line) == 3 and p in line and q in line
    assert core.is_modular(f) and not core.is_distributive(f)


def test_subspace_lattices():
    assert core.find_isomorphism(catalog.subspace_lattice(2, 3),
                                 catalog.fano()) is not None
    assert core.find_isomorphism(catalog.subspace_lattice(2, 2),
                                 catalog.m_k(3)) is not None
    assert core.find_isomorphism(catalog.subspace_lattice(3, 2),
                                 catalog.m_k(4)) is not None
    assert core.find_isomorphism(catalog.subspace_lattice(5, 2),
                                 catalog.m_k(6)) is not None
    with pytest.raises(ArgumentOutOfRange):
        catalog.subspace_lattice(6, 2)
    with pytest.raises(SizeLimitExceeded):
        catalog.subspace_lattice(2, 13)


# -- oracle: subspaces by frozenset span closure --------------------------------

def frozenset_subspace_lattice(q, d):
    """Oracle for subspace_lattice: the route it replaced.  Spans are closed
    one vector at a time over frozensets of coordinate tuples; a vector in
    a span already taken from the same subspace adds nothing new, so it is
    skipped.  Subspace i
    lies in subspace k when they share all of i's vectors, counted by one
    product of the membership matrix read off the frozensets (a vector's
    column is its entries read as a base-q number).  Returns the membership
    matrix in element order, the order matrix and the names."""
    zero = (0,) * d

    def extend(space: frozenset, v: tuple) -> frozenset:
        return frozenset(tuple((s[i] + c * v[i]) % q for i in range(d))
                         for s in space for c in range(q))

    vectors = [tuple(vec) for vec in np.ndindex(*([q] * d))]
    found = {frozenset([zero])}
    queue = [frozenset([zero])]
    while queue:
        space = queue.pop()
        covered = set(space)
        for v in vectors:
            if v not in covered:
                bigger = extend(space, v)
                covered |= bigger
                if bigger not in found:
                    found.add(bigger)
                    queue.append(bigger)
    subspaces = sorted(found, key=lambda s: (len(s), sorted(s)))
    weights = q ** np.arange(d - 1, -1, -1)
    member = np.zeros((len(subspaces), q ** d), dtype=bool)
    for i, s in enumerate(subspaces):
        member[i, np.array(list(s)) @ weights] = True
    # float32 counts are exact up to q^d = 64 shared vectors
    rows = member.astype(np.float32)
    leq = rows @ rows.T == rows.sum(axis=1)[:, None]
    names = [f"S{i}d{round(np.log(len(s)) / np.log(q))}" for i, s in enumerate(subspaces)]
    return member, leq, names


def test_subspace_lattice_matches_frozenset_oracle():
    """Every (q, d) with q^d <= 64: the same subspaces in the same order,
    the same names and the same order matrix.  About 1 s on a 2-core Xeon,
    nearly all of it on Sub(2,6): the oracle and subspace_lattice take
    about 0.5 s each there."""
    cases = [(q, d) for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                              47, 53, 59, 61)
             for d in range(1, 7) if q ** d <= 64]
    assert len(cases) == 27
    for q, d in cases:
        member, leq, names = frozenset_subspace_lattice(q, d)
        assert np.array_equal(catalog._subspaces(q, d)[0], member), (q, d)
        lat = catalog.subspace_lattice(q, d)
        assert lat.names == names and np.array_equal(lat.leq, leq), (q, d)


def test_decorate_grid_basics():
    assert core.find_isomorphism(
        catalog.decorate_grid(GridDecoration(2, 2, (("m", (0, 0), (1, 1)),))),
        catalog.m_k(3)) is not None
    w7 = catalog.witness7()
    assert w7.n == 7
    assert core.find_isomorphism(
        catalog.decorate_grid(GridDecoration(3, 2, (("n", (1, 0), (1, 1)),))),
        w7) is not None


def test_decorate_grid_fails_fast_above_the_element_cap(traced_peak):
    # 65 x 64 = 4,160 grid elements: refused before any n x n order is built
    def build():
        with pytest.raises(SizeLimitExceeded):
            catalog.decorate_grid(GridDecoration(65, 64))

    assert traced_peak(build)[1] < 1 << 20


def test_decoration_conflicts():
    with pytest.raises(DecorationConflict) as err:
        catalog.decorate_grid(GridDecoration(
            3, 3, (("n", (0, 0), (0, 1)), ("n", (0, 0), (1, 0)))))
    assert err.value.condition == "C3"
    with pytest.raises(DecorationConflict) as err:
        catalog.decorate_grid(GridDecoration(3, 3, (("n", (0, 0), (1, 1)),)))
    assert err.value.condition == "C4"
    with pytest.raises(DecorationConflict) as err:
        catalog.decorate_grid(GridDecoration(3, 3, (("m", (0, 0), (0, 1)),)))
    assert err.value.condition == "C4"
    with pytest.raises(DecorationConflict) as err:
        catalog.decorate_grid(GridDecoration(
            3, 3, (("n", (0, 1), (1, 1)), ("m", (0, 0), (1, 1)))))
    assert err.value.condition == "C3"


# -- test oracles ------------------------------------------------------------

def check_c1_c4(lat, grid_elements: list[int]) -> tuple[bool, str]:
    """Test oracle: clauses (C1)-(C7) checked one by one for the given grid
    designation, independently of how decorate_grid built the lattice.

    Returns (ok, diagnostic); the diagnostic names the first violated
    clause and its witnesses.
    """
    g = sorted(set(grid_elements))
    gset = set(g)
    # (C1): {0,1}-sublattice of the form C x D
    if lat.bottom not in gset or lat.top not in gset:
        return False, "C1: grid misses a bound"
    for a in g:
        for b in g:
            if lat.meet(a, b) not in gset or lat.join(a, b) not in gset:
                return False, f"C1: grid not a sublattice at ({a},{b})"
    # g now holds both bounds and is closed under meet and join, so it is a
    # lattice in the induced order
    gl = core.lattice_from_leq(lat.leq[np.ix_(g, g)], names=[lat.names[e] for e in g])
    factored = None
    m = len(g)
    for p in range(1, m + 1):
        if m % p:
            continue
        q = m // p
        grid = core.direct_product(catalog.chain(p), catalog.chain(q))
        iso = core.find_isomorphism(gl, grid)
        if iso is not None:
            factored = (p, q, iso)
            break
    if factored is None:
        return False, "C1: grid is not a product of two chains"
    p, q, iso = factored
    coord = {}  # lattice element -> (row, col) in C_p x C_q
    for i, e in enumerate(g):
        k = iso[i]
        coord[e] = (k // q, k % q)

    h = [e for e in lat.elements() if e not in gset]
    # (C2): doubly irreducible
    for x in h:
        if len(lat.lower_covers(x)) != 1 or len(lat.upper_covers(x)) != 1:
            return False, f"C2: element {lat.names[x]} not doubly irreducible"

    # g is closed under join and meet and holds both bounds, so the grid
    # elements below (above) x have their join (meet) in g: the largest
    # (smallest) of them
    un = {x: reduce(lat.join, [e for e in g if lat.le(e, x)]) for x in h}
    ov = {x: reduce(lat.meet, [e for e in g if lat.le(x, e)]) for x in h}
    # (C3): equal lower bounds force equality, and dually
    for x in h:
        for y in h:
            if x < y and un[x] == un[y]:
                return False, f"C3: {lat.names[x]} and {lat.names[y]} share lower bound"
            if x < y and ov[x] == ov[y]:
                return False, f"C3: {lat.names[x]} and {lat.names[y]} share upper bound"
    # (C4): interval shapes
    for x in h:
        a, b = un[x], ov[x]
        ra, ca = coord[a]
        rb, cb = coord[b]
        gint = [e for e in g if lat.le(a, e) and lat.le(e, b)]
        lint = [e for e in lat.elements() if lat.le(a, e) and lat.le(e, b)]
        if (rb - ra, cb - ca) in ((0, 1), (1, 0)):
            if len(gint) != 2 or len(lint) != 3:
                return False, f"C4: [{lat.names[a]},{lat.names[b]}] is not a 3-chain"
        elif (rb - ra, cb - ca) == (1, 1):
            if len(gint) != 4 or len(lint) != 5:
                return False, f"C4: [{lat.names[a]},{lat.names[b]}] is not an M_3"
            sub_leq = lat.leq[np.ix_(lint, lint)]
            m3 = core.lattice_from_leq(sub_leq.copy())
            if core.find_isomorphism(m3, catalog.m_k(3)) is None:
                return False, f"C4: [{lat.names[a]},{lat.names[b]}] is not an M_3"
        else:
            return False, f"C4: [{lat.names[a]},{lat.names[b]}] is neither prime"
    # consequences (C5)-(C7)
    for x in lat.elements():
        for y in lat.elements():
            if y <= x or lat.le(x, y) or lat.le(y, x):
                continue
            mv, jv = lat.meet(x, y), lat.join(x, y)
            if mv not in gset or jv not in gset:
                return False, f"C5: bounds of ({lat.names[x]},{lat.names[y]}) not in grid"
            ux = x if x in gset else un[x]
            uy = y if y in gset else un[y]
            ox = x if x in gset else ov[x]
            oy = y if y in gset else ov[y]
            if lat.meet(ux, uy) != mv or lat.join(ox, oy) != jv:
                return False, f"C6: fails at ({lat.names[x]},{lat.names[y]})"
            rm, cm = coord[mv]
            if coord[ux][0] != rm and coord[ux][1] != cm:
                return False, f"C7: fails at ({lat.names[x]},{lat.names[y]})"
    return True, "ok"


def test_check_c1_c4_positive_and_negative():
    w7 = catalog.witness7()
    grid = [e for e, nm in enumerate(w7.names) if nm.startswith("(")]
    ok, diag = check_c1_c4(w7, grid)
    assert ok, diag
    # a chain is not a valid grid designation for the pentagon
    n5 = catalog.n5()
    ok, diag = check_c1_c4(n5, [0, 1, 2, 4])
    assert not ok
    # dropping a grid element breaks sublattice closure or the bounds
    ok, diag = check_c1_c4(w7, grid[1:])
    assert not ok


def test_random_c1c4_deterministic_and_valid():
    a = catalog.random_c1c4(7)
    b = catalog.random_c1c4(7)
    assert a == b and a.names == b.names
    for seed in range(40):
        lat = catalog.random_c1c4(seed, rows=4, cols=3, density=0.7)
        grid = [e for e, nm in enumerate(lat.names) if nm.startswith("(")]
        ok, diag = check_c1_c4(lat, grid)
        assert ok, (seed, diag)
    plain = catalog.random_c1c4(0, density=0.0)
    assert plain.n == 9 and rank.modularity_rank(plain) == 1


def test_ladder_family_structure():
    for n in (1, 2, 3):
        lat = catalog.l_family(n)
        assert lat.n == 8 + 5 * n
        x0, y0, z0 = (lat.index_of(s) for s in ("x0", "y0", "z0"))
        trace = rank.closure3(lat, rank.Triple(x0, y0, z0))
        firsts = [lat.names[t[0]] for t in trace.iterates]
        assert firsts[: n + 1] == [f"x{k}" for k in range(n + 1)]
        assert trace.iterates[n + 1][0] == lat.top
        if n >= 2:
            inner = interval(lat, lat.meet(lat.index_of("x1"),
                                           lat.index_of("z1")), lat.top)
            assert core.find_isomorphism(inner, catalog.l_family(n - 1)) is not None
    with pytest.raises(ArgumentOutOfRange):
        catalog.l_family(0)


def test_enumerate_lattices_counts():
    counts = [sum(1 for _ in catalog.enumerate_lattices(n)) for n in range(1, 7)]
    assert counts == [1, 1, 1, 2, 7, 39]
    for lat in catalog.enumerate_lattices(5):
        lat.validate()


def test_by_name_registry(tmp_path):
    assert catalog.by_name("m3").n == 5
    assert catalog.by_name("witness7").n == 7
    assert catalog.by_name("b3").n == 8
    assert catalog.by_name("c4").n == 4
    assert catalog.by_name("l:2").n == 18
    assert catalog.by_name("subspace:2,2").n == 5
    path = tmp_path / "saved.json"
    path.write_text(core.serialize(catalog.n5()))
    assert catalog.by_name(f"file:{path}") == catalog.n5()
    # surrounding blanks are stripped before the path is taken; its case is kept
    mixed = tmp_path / "Saved-N5.json"
    mixed.write_text(core.serialize(catalog.n5()))
    assert catalog.by_name(f"  FILE:{mixed} \n") == catalog.n5()
    with pytest.raises(ArgumentOutOfRange):
        catalog.by_name("mystery")
