import collections
import functools
import importlib.util
import itertools
import json
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    antichains3,
    isotone_maps_backtrack,
    relabeled,
    row_or_closure,
    small_catalog,
)
from latmod import catalog, construct, core
from latmod.core import CoverList, FiniteLattice, from_covers
from latmod.errors import (
    CycleDetected,
    NotALattice,
    ParseError,
    SizeLimitExceeded,
    VerificationFailed,
)


# -- test oracles ------------------------------------------------------------

def argmax_tables(leq: np.ndarray):
    """Test oracle: meet/join tables by the argmax route the library used
    before it built them from covers.  For each a, the glb candidate per b
    is the common lower bound with the largest down-set, kept only if every
    common lower bound lies below it (dually for joins).  Raises NotALattice
    naming an offending pair; it accepts a pair with no common bound at all,
    which argmax_is_lattice catches with its bottom/top check."""
    n = leq.shape[0]
    meet = np.empty((n, n), dtype=np.int32)
    join = np.empty((n, n), dtype=np.int32)
    down_count = leq.sum(axis=0)
    up_count = leq.sum(axis=1)
    for a in range(n):
        common = leq[:, [a]] & leq          # common[c, b]: c <= a and c <= b
        weights = np.where(common, down_count[:, None], -1)
        cand = np.argmax(weights, axis=0).astype(np.int32)
        ok = ~(common & ~leq[:, cand]).any(axis=0)
        if not ok.all():
            raise NotALattice(a, int(np.flatnonzero(~ok)[0]), "meet")
        meet[a] = cand
        ub = leq[a, :][None, :] & leq       # ub[b, c]: a <= c and b <= c
        weightsu = np.where(ub, up_count[None, :], -1)
        candu = np.argmax(weightsu, axis=1).astype(np.int32)
        oku = ~(ub & ~leq[candu, :]).any(axis=1)
        if not oku.all():
            raise NotALattice(a, int(np.flatnonzero(~oku)[0]), "join")
        join[a] = candu
    return meet, join


def argmax_is_lattice(leq: np.ndarray) -> bool:
    """Test oracle: the old lattice_from_leq verdict on a partial order."""
    try:
        argmax_tables(leq)
    except NotALattice:
        return False
    return bool(leq.all(axis=1).any() and leq.all(axis=0).any())


def cover_argmax_glbs(order: np.ndarray, lower: list[list[int]]) -> np.ndarray:
    """Test oracle: the glb table by an argmax of the down-set sizes over
    the lower covers' entries, where core._candidate_glbs takes the maximum
    of extension positions.

    Rows are filled in a linear extension: glb(a, b) = a when a <= b, and
    otherwise glb(a, b) <= a' for some lower cover a' of a, so it is the
    entry with the largest down-set among glb(a', b); -1 when a has no
    lower cover.  On a non-lattice the table is wrong somewhere, and
    _check_tables finds where.
    """
    n = order.shape[0]
    down = order.sum(axis=0)
    weight = np.append(down, -1)  # weight[-1] ranks "no candidate" last
    cols = np.arange(n)
    out = np.empty((n, n), dtype=np.int32)
    for a in np.argsort(down, kind="stable").tolist():
        below = lower[a]
        if not below:
            out[a] = -1
        elif len(below) == 1:
            out[a] = out[below[0]]
        else:
            cand = out[below]
            out[a] = cand[np.argmax(weight[cand], axis=0), cols]
        out[a, order[a]] = a
    return out


def interval_check_order(leq: np.ndarray) -> np.ndarray:
    """Test oracle for core._CoverIndex(leq, check=True): NotALattice
    unless leq is a partial order, checking reflexivity, antisymmetry, then
    transitivity; else its cover matrix.  The interval sizes
    #{c : a <= c <= b} come from one float32 product, exact while
    n < 2**24: a nonzero size off the order breaks transitivity, and a is
    covered by b iff it is 2."""
    n = leq.shape[0]
    if not np.diag(leq).all():
        raise NotALattice(-1, -1, "reflexivity")
    if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
        raise NotALattice(-1, -1, "antisymmetry")
    f = leq.astype(np.float32)
    sizes = f @ f
    if ((sizes > 0) & ~leq).any():
        raise NotALattice(-1, -1, "transitivity")
    return leq & (sizes == 2)


def interval_covers(leq: np.ndarray):
    """Test oracle for core._CoverIndex: (pairs, lower, upper) read off
    interval_check_order's cover matrix."""
    lo, hi = np.nonzero(interval_check_order(leq))  # row-major, hence lexicographic
    pairs = list(zip(lo.tolist(), hi.tolist()))
    lower, upper = [[] for _ in leq], [[] for _ in leq]
    for a, b in pairs:
        upper[a].append(b)
        lower[b].append(a)
    return pairs, lower, upper


def cover_argmax_tables(leq: np.ndarray):
    """Test oracle: the meet and join tables of a partial order by
    cover_argmax_glbs, on the covers of interval_covers."""
    _, lower, upper = interval_covers(leq)
    return cover_argmax_glbs(leq, lower), cover_argmax_glbs(leq.T, upper)


def count_first_non_glb(order: np.ndarray, table: np.ndarray):
    """Test oracle for core._first_non_glb, by counts: the first (a, b),
    row-major, whose table entry m is not glb(a, b).

    m is the glb iff m <= a, m <= b and |down(m)| = |down(a) & down(b)|:
    transitivity puts down(m) inside the intersection, so equal sizes make
    them equal.  The intersection sizes come from one float32 product,
    exact while n < 2**24.  The order must be a checked partial order.
    """
    n = order.shape[0]
    cols = np.arange(n)
    ok = (table >= 0) & (table < n)
    m = np.where(ok, table, 0)
    ok &= order[m, cols[:, None]]
    ok &= order[m, cols[None, :]]
    f = order.astype(np.float32)
    ok &= order.sum(axis=0, dtype=np.float32)[m] == f.T @ f
    if ok.all():
        return None
    return divmod(int(np.argmin(ok)), n)


def count_check_tables(leq: np.ndarray, meet: np.ndarray, join: np.ndarray):
    """Test oracle: core._check_tables by count_first_non_glb."""
    for kind, order, table in (("meet", leq, meet), ("join", leq.T, join)):
        bad = count_first_non_glb(order, table)
        if bad is not None:
            raise NotALattice(*bad, kind)


def scalar_covers(lat):
    """Test oracle: a < b with no c strictly between, by a triple loop."""
    lt = lambda x, y: x != y and lat.le(x, y)
    return [(a, b) for a in lat.elements() for b in lat.elements()
            if lt(a, b) and not any(lt(a, c) and lt(c, b) for c in lat.elements())]


def scalar_height(lat):
    """Test oracle: longest strict chain, by memoized search over <."""
    memo = {}

    def up_from(a):
        if a not in memo:
            memo[a] = max((1 + up_from(b) for b in lat.elements()
                           if b != a and lat.le(a, b)), default=0)
        return memo[a]

    return max(up_from(a) for a in lat.elements())


def random_poset(rng, n):
    """A seeded random partial order on n elements, randomly labeled; half
    the time with a bottom and a top forced in, so lattices are common."""
    leq = np.triu(rng.random((n, n)) < rng.random(), k=1) | np.eye(n, dtype=bool)
    if rng.random() < 0.5:
        leq[0, :] = True
        leq[:, n - 1] = True
    while True:  # transitive closure
        nxt = (leq.astype(np.int64) @ leq.astype(np.int64)) > 0
        if np.array_equal(nxt, leq):
            break
        leq = nxt
    perm = rng.permutation(n)
    return leq[np.ix_(perm, perm)]


def n5_covers():
    return CoverList(5, ((0, 1), (1, 2), (0, 3), (2, 4), (3, 4)),
                     ("o", "b", "a", "c", "i"))


def test_from_covers_builds_pentagon():
    lat = from_covers(n5_covers())
    lat.validate()
    assert lat.n == 5
    assert lat.bottom == 0 and lat.top == 4
    assert lat.meet(2, 3) == 0 and lat.join(1, 3) == 4
    assert lat.covers() == [(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]
    assert lat.height() == 3


def test_cover_list_rejects_bad_input():
    with pytest.raises(ParseError):
        CoverList(3, ((0, 3),))
    with pytest.raises(ParseError):
        CoverList(3, ((1, 1),))
    with pytest.raises(ParseError):
        CoverList(2, (), names=("only-one",))


def test_cycle_detection():
    with pytest.raises(CycleDetected):
        from_covers(CoverList(3, ((0, 1), (1, 2), (2, 0))))


def test_non_lattice_poset_rejected():
    # two minimal and two maximal elements: no unique bounds
    with pytest.raises(NotALattice):
        from_covers(CoverList(4, ((0, 2), (0, 3), (1, 2), (1, 3))))


def test_meet_join_against_order_scan(lattices):
    """Table entries re-derived from the raw order, element by element."""
    for lat in lattices.values():
        for a in lat.elements():
            for b in lat.elements():
                lower = [c for c in lat.elements() if lat.le(c, a) and lat.le(c, b)]
                glb = max(lower, key=lambda c: int(lat.leq[:, c].sum()))
                assert all(lat.le(c, glb) for c in lower)
                assert lat.meet(a, b) == glb
                upper = [c for c in lat.elements() if lat.le(a, c) and lat.le(b, c)]
                lub = max(upper, key=lambda c: int(lat.leq[c, :].sum()))
                assert all(lat.le(lub, c) for c in upper)
                assert lat.join(a, b) == lub


def test_direct_product_and_projections():
    a, b = catalog.chain(3), catalog.n5()
    p = core.direct_product(a, b)
    assert p.n == 15
    for i in range(a.n):
        for j in range(b.n):
            for i2 in range(a.n):
                for j2 in range(b.n):
                    e, f = i * b.n + j, i2 * b.n + j2
                    assert p.le(e, f) == (a.le(i, i2) and b.le(j, j2))
    p.validate()


def test_direct_product_fails_fast_above_the_element_cap(traced_peak, monkeypatch):
    # 64 * 65 = 4,160 elements: refused before its (n^2) order and tables
    a, b = catalog.chain(64), catalog.chain(65)

    def build():
        with pytest.raises(SizeLimitExceeded, match="64 \\* 65 elements"):
            core.direct_product(a, b)

    _, peak = traced_peak(build)
    assert peak < 1 << 16
    monkeypatch.setattr(core, "ELEMENT_CAP", 40)
    assert core.direct_product(catalog.chain(5), catalog.chain(8)).n == 40
    with pytest.raises(SizeLimitExceeded):
        core.direct_product(catalog.chain(3), catalog.chain(14))


def test_join_irreducibles():
    b3 = catalog.boolean(3)
    ji = core.join_irreducibles(b3)
    assert [b3.names[e] for e in ji] == ["{0}", "{1}", "{2}"]
    assert core.join_irreducibles(catalog.chain(4)) == [1, 2, 3]


def test_distributive_and_modular_flags(lattices):
    flags = {name: (core.is_distributive(lat), core.is_modular(lat))
             for name, lat in lattices.items()}
    assert flags["B3"] == (True, True)
    assert flags["M3"] == (False, True)
    assert flags["N5"] == (False, False)
    assert flags["witness7"] == (False, False)
    # distributivity implies modularity throughout
    assert all(m for d, m in flags.values() if d)


def test_antichains3():
    # the oracle the antichain scan tests compare against
    assert antichains3(catalog.n5()) == []
    m4 = catalog.m_k(4)
    out = antichains3(m4)
    assert len(out) == 4  # choose 3 of the 4 atoms
    assert all(x < y < z for x, y, z in out)
    assert out == sorted(out)


def test_find_isomorphism_positive_and_negative():
    n5 = catalog.n5()
    assert core.find_isomorphism(n5, relabeled(n5, 1)) is not None
    assert core.find_isomorphism(n5, catalog.m_k(3)) is None
    two_chains = core.direct_product(catalog.chain(2), catalog.chain(3))
    assert core.find_isomorphism(
        two_chains, core.direct_product(catalog.chain(3), catalog.chain(2))
    ) is not None


def test_isotone_maps_count():
    # maps from a 2-chain into M_3 = comparable pairs of M_3
    m3 = catalog.m_k(3)
    poset = catalog.chain(2).leq
    maps = core.isotone_maps(poset, m3)
    comparable = {(u, v) for u in m3.elements() for v in m3.elements() if m3.le(u, v)}
    assert poset[0, 1] and len(maps) == len(comparable) == 12
    assert set(map(tuple, maps.tolist())) == comparable  # each row holds a map's values
    # maps from a 2-antichain: all pairs
    anti = np.eye(2, dtype=bool)
    assert len(core.isotone_maps(anti, m3)) == 25


def test_isotone_maps_match_the_backtracker():
    # every lattice with at most 6 elements, renumbered, as the poset, into
    # six targets, where |T|^|P| <= 2 * 10^6: 306 cases, order included
    targets = [catalog.by_name(s) for s in ("c2", "c3", "m3", "n5", "c2sq", "witness7")]
    cases = 0
    for n in range(1, 7):
        for i, lat in enumerate(catalog.enumerate_lattices(n)):
            poset = relabeled(lat, 100 * n + i).leq
            for t in targets:
                if t.n ** n <= 2 * 10 ** 6:
                    got = core.isotone_maps(poset, t)
                    assert got.shape[1] == n
                    assert list(map(tuple, got.tolist())) == isotone_maps_backtrack(poset, t)
                    cases += 1
    assert cases == 306


def test_isotone_maps_refuse_a_level_past_the_cap(monkeypatch):
    # 5^3 maps of a 3-antichain into M_3: the last level has 25 * 5
    # candidates on 3 points, 375 values; refused before it is allocated
    anti = np.eye(3, dtype=bool)
    monkeypatch.setattr(core, "ISOTONE_MAP_CAP", 375)
    assert len(core.isotone_maps(anti, catalog.m_k(3))) == 125
    monkeypatch.setattr(core, "ISOTONE_MAP_CAP", 374)
    allocated = []
    ones = np.ones

    def recording(shape, *args, **kwargs):
        allocated.append(shape)
        return ones(shape, *args, **kwargs)

    monkeypatch.setattr(np, "ones", recording)
    with pytest.raises(SizeLimitExceeded, match="25 maps times 5 values on 3 points"):
        core.isotone_maps(anti, catalog.m_k(3))
    assert allocated == [(1, 5), (5, 5)]  # each level's candidate tests


def test_pointwise_order_refuses_above_the_element_cap(monkeypatch):
    values = np.zeros((41, 2), dtype=np.intp)
    monkeypatch.setattr(core, "ELEMENT_CAP", 40)
    with pytest.raises(SizeLimitExceeded, match="41 elements"):
        core.pointwise_order(catalog.chain(2), values)
    assert core.pointwise_order(catalog.chain(2), values[:40]).all()


def test_serialize_roundtrip(lattices):
    for lat in lattices.values():
        again = core.parse(core.serialize(lat))
        assert again == lat and again.names == lat.names


def dumps_oracle(lat):
    """Oracle for core.serialize: the document through json.dumps with
    indent=2, the encoder serialize replaced."""
    doc = {"name": lat.name, "elements": list(lat.names),
           "covers": [[lo, hi] for lo, hi in lat.covers()]}
    return json.dumps(doc, indent=2)


def test_serialize_writes_the_json_dumps_bytes():
    """Byte for byte json.dumps(doc, indent=2) on every lattice with at
    most 7 elements, the catalog specs (C1 has no covers), M3[Fano], and
    names with quotes, backslashes, control characters and non-ASCII
    text."""
    lats = [lat for n in range(1, 8) for lat in catalog.enumerate_lattices(n)]
    lats += list(small_catalog().values())
    lats += [catalog.by_name(spec) for spec in ("fano", "l:3", "subspace:2,3", "c2sq")]
    lats.append(construct.m3_of(catalog.fano()).lattice)
    odd = catalog.chain(4)
    odd.names = ['a "quoted" one', "back\\slash", "tab\there\x01",
                 "\u00e9l\u00e9ment \u2203 \U0001d53d"]
    odd.name = 'odd\n"name" \u2200'
    lats.append(odd)
    assert lats[0].n == 1 and lats[0].covers() == []
    for lat in lats:
        assert core.serialize(lat) == dumps_oracle(lat), lat.name
    again = core.parse(core.serialize(odd))
    assert again.names == odd.names and again.name == odd.name


def load_bench_workloads(monkeypatch):
    """bench/workloads.py, read as a module without adding bench/ to the
    import path (registered while the test runs, as its dataclasses need)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_serialize_keeps_the_census_reference_keys(monkeypatch):
    """bench/refs.json keys each census input by a hash of its serialized
    bytes, so every lattice of the census pool must serialize to a key it
    holds (read only: the references are frozen)."""
    wl = load_bench_workloads(monkeypatch)
    refs = wl.load_refs()["census"]
    pool = [lat for n in range(1, wl.SMALL_MAX + 1) for lat in catalog.enumerate_lattices(n)]
    pool += [catalog.random_c1c4(s) for s in range(wl.GRID_POOL)]
    keys = [wl.input_key(core.serialize(lat)) for lat in pool]
    assert len(set(keys)) == len(pool) == len(refs) == 467
    assert set(keys) == set(refs)


def test_parse_diagnostics():
    with pytest.raises(ParseError):
        core.parse("not json")
    with pytest.raises(ParseError):
        core.parse(json.dumps({"covers": []}))
    with pytest.raises(ParseError):
        core.parse(json.dumps({"elements": ["a"], "covers": [[0]]}))
    with pytest.raises(ParseError):
        core.parse(json.dumps({"elements": [1], "covers": []}))


def test_parse_rejects_non_list_covers():
    for covers in (None, 3, "01", {"0": 1}):
        with pytest.raises(ParseError, match="'covers' must be a list"):
            core.parse(json.dumps({"elements": ["a", "b"], "covers": covers}))


def test_parse_rejects_boolean_element_ids():
    for pair in ([True, 1], [0, True], [False, True]):
        with pytest.raises(ParseError, match="pair of integers"):
            core.parse(json.dumps({"elements": ["a", "b"], "covers": [pair]}))


def test_parse_names_the_first_malformed_cover():
    """Each malformed pair, alone or late in a long list of good ones, is
    named by its index: a bool, a float, a string, a 1- or 3-element list,
    a tuple-like object, null."""
    good = [[i, i + 1] for i in range(2_000)]
    names = [str(i) for i in range(2_001)]
    for bad in ([True, 1], [0, False], [0.0, 1], ["0", 1], [0], [0, 1, 2], {"0": 1}, None, 3):
        for at in (0, 1_500):
            covers = good[:at] + [bad] + good[at:]
            with pytest.raises(ParseError, match=rf"^covers\[{at}\] must be a pair of integers$"):
                core.parse(json.dumps({"elements": names, "covers": covers}))
    assert core.parse(json.dumps({"elements": names, "covers": good})).height() == 2_000


def test_cover_list_names_the_first_bad_pair():
    with pytest.raises(ParseError, match=r"^cover \(3,3\) is reflexive$"):
        CoverList(4, ((0, 1), (3, 3), (0, 9)))
    with pytest.raises(ParseError, match=r"^cover \(0,9\) out of range for size 4$"):
        CoverList(4, ((0, 1), (0, 9), (3, 3)))
    for pair in ((-1, 2), (2, -1), (4, 4), (-1, -1)):
        with pytest.raises(ParseError, match="out of range"):
            CoverList(4, ((0, 1), pair))


def test_from_covers_order_matches_row_closure_oracle(monkeypatch):
    """The order from_covers closes on Python-int up-sets equals the
    row-or closure on every lattice with at most 7 elements, relabelled
    M3[Fano], and the covers with redundant transitive pairs added, which
    leave the order the same; a cycle raises CycleDetected."""
    lats = [lat for n in range(1, 8) for lat in catalog.enumerate_lattices(n)]
    lats.append(relabeled(construct.m3_of(catalog.fano()).lattice, 7))
    rng = np.random.default_rng(7)
    orders = []
    monkeypatch.setattr(core, "lattice_from_leq", lambda leq, **_: orders.append(leq))
    for lat in lats:
        covers = lat.covers()
        lo, hi = np.nonzero(lat.leq & ~np.eye(lat.n, dtype=bool))
        extra = rng.permutation(lo.size)[:5]
        redundant = covers + [(int(lo[i]), int(hi[i])) for i in extra]
        for pairs in (covers, redundant):
            c = CoverList(lat.n, tuple(pairs))
            from_covers(c)
            got = orders.pop()
            assert got.dtype == bool and got.shape == (lat.n, lat.n)
            assert np.array_equal(got, row_or_closure(c)) and np.array_equal(got, lat.leq)
    cycle = CoverList(4, ((0, 1), (1, 2), (2, 3), (3, 1)))
    assert row_or_closure(cycle) is None
    with pytest.raises(CycleDetected):
        from_covers(cycle)


def test_parse_rejects_repeated_names():
    with pytest.raises(ParseError, match="repeated name"):
        core.parse(json.dumps({"elements": ["a", "a"], "covers": [[0, 1]]}))


def test_parse_rejects_deep_nesting_and_oversized_inputs():
    with pytest.raises(ParseError):
        core.parse("[" * 100_000)
    names = [str(i) for i in range(core.ELEMENT_CAP + 1)]
    with pytest.raises(SizeLimitExceeded):
        core.parse(json.dumps({"elements": names, "covers": []}))


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
def test_lattice_from_leq_rejects_a_matrix_that_is_not_square(shape):
    with pytest.raises(ParseError, match="must be square"):
        core.lattice_from_leq(np.ones(shape, dtype=bool))


def test_lattice_from_leq_fails_fast_above_the_element_cap(traced_peak):
    # rejected before the order is copied or any n x n table is allocated
    leq = np.eye(core.ELEMENT_CAP + 1, dtype=bool)

    def build():
        with pytest.raises(SizeLimitExceeded):
            core.lattice_from_leq(leq)

    _, peak = traced_peak(build)
    assert peak < 1 << 20


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_enumerated_lattices_roundtrip_and_axioms(n, rng):
    pool = list(catalog.enumerate_lattices(n))
    lat = rng.choice(pool)
    lat.validate()
    assert core.parse(core.serialize(lat)) == lat


# -- the order engine against its oracles --------------------------------------

def test_tables_match_argmax_oracle():
    pool = [lat for n in range(1, 8) for lat in catalog.enumerate_lattices(n)]
    assert len(pool) == 371
    for k in (4, 6):
        m3 = construct.m3_of(catalog.m_k(k)).lattice
        pool += [m3, relabeled(m3, k)]
    for lat in pool:
        built = core.lattice_from_leq(lat.leq)
        meet, join = argmax_tables(lat.leq)
        assert np.array_equal(built.meet_table, meet)
        assert np.array_equal(built.join_table, join)
        assert built == lat


def test_random_posets_rejected_iff_argmax_oracle_rejects():
    rng = np.random.default_rng(2026)
    verdicts = []
    for _ in range(600):
        leq = random_poset(rng, int(rng.integers(1, 9)))
        want = argmax_is_lattice(leq)
        try:
            lat = core.lattice_from_leq(leq)
        except NotALattice:
            got = False
        else:
            got = True
            meet, join = argmax_tables(leq)
            assert np.array_equal(lat.meet_table, meet)
            assert np.array_equal(lat.join_table, join)
        assert got == want, leq.astype(int)
        verdicts.append(got)
    assert 100 < sum(verdicts) < 500  # both outcomes well represented


def test_tables_match_cover_argmax_oracle():
    m3 = construct.m3_of(catalog.fano()).lattice
    pool = [relabeled(m3, 7)]
    for n in range(1, 8):
        for i, lat in enumerate(catalog.enumerate_lattices(n)):
            pool += [lat, relabeled(lat, 100 * n + i)]
    assert len(pool) == 1 + 2 * 371
    for lat in pool:
        built = core.lattice_from_leq(lat.leq)
        meet, join = cover_argmax_tables(lat.leq)
        assert np.array_equal(built.meet_table, meet)
        assert np.array_equal(built.join_table, join)


def first_fault(build, leq):
    """The (a, b, kind) of the NotALattice that build(leq) raises, or None."""
    try:
        build(leq)
    except NotALattice as err:
        return err.a, err.b, err.kind
    return None


def test_not_a_lattice_matches_cover_argmax_oracle():
    # the kernels may disagree at a pair without a glb; each entry is still
    # -1 or a common lower bound, hence the glb wherever one exists, so the
    # word check after one names the same first pair as the count oracle
    # after the other
    rng = np.random.default_rng(22)
    faults = differ = 0
    for _ in range(2000):
        leq = random_poset(rng, int(rng.integers(2, 12)))
        want = first_fault(lambda o: count_check_tables(o, *cover_argmax_tables(o)), leq)
        assert first_fault(core.lattice_from_leq, leq) == want, leq.astype(int)
        faults += want is not None
        oracle_covers = interval_covers(leq)
        for check in (False, True):
            covers = core._CoverIndex(leq, check)
            assert (covers.pairs, covers.lower, covers.upper) == oracle_covers, leq.astype(int)
        cols = np.arange(len(leq))
        for order, lower, oracle in zip(
                (leq, leq.T), (covers.lower, covers.upper), cover_argmax_tables(leq)):
            cand = core._candidate_glbs(order, lower)
            common = order[cand, cols[:, None]] & order[cand, cols]
            assert ((cand == -1) | common).all(), leq.astype(int)
            differ += not np.array_equal(cand, oracle)
    assert 400 < faults < 1600  # both outcomes well represented
    assert differ > 0  # the invariant, not equal tables, carries the equality


def corrupted(lat, meet=None, join=None):
    return FiniteLattice(lat.leq.copy(),
                         lat.meet_table.copy() if meet is None else meet,
                         lat.join_table.copy() if join is None else join)


def test_validate_rejects_corrupted_tables():
    b3 = catalog.boolean(3)
    ix = b3.index_of
    a, b, c = ix("{0,1}"), ix("{0,2}"), ix("{1,2}")
    corrupted(b3).validate()

    meet = b3.meet_table.copy()
    meet[a, b], meet[a, c] = meet[a, c], meet[a, b]  # {0} <-> {1}
    with pytest.raises(NotALattice) as exc:
        corrupted(b3, meet=meet).validate()
    assert (exc.value.a, exc.value.b, exc.value.kind) == (a, min(b, c), "meet")

    join = b3.join_table.copy()
    x, y, z = ix("{0}"), ix("{1}"), ix("{2}")
    join[x, y], join[x, z] = join[x, z], join[x, y]
    with pytest.raises(NotALattice) as exc:
        corrupted(b3, join=join).validate()
    assert (exc.value.a, exc.value.b, exc.value.kind) == (x, min(y, z), "join")

    # the bottom is a common lower bound of {0,1} and {0,2}, but not the greatest
    meet = b3.meet_table.copy()
    meet[a, b] = meet[b, a] = b3.bottom
    with pytest.raises(NotALattice) as exc:
        corrupted(b3, meet=meet).validate()
    assert (exc.value.a, exc.value.b, exc.value.kind) == (min(a, b), max(a, b), "meet")

    # {2} is below {0,2} and as low as {0} = glb, but not below {0,1}:
    # caught in row a and in row b
    for row, col in ((a, b), (b, a)):
        meet = b3.meet_table.copy()
        meet[row, col] = z
        with pytest.raises(NotALattice) as exc:
            corrupted(b3, meet=meet).validate()
        assert (exc.value.a, exc.value.b, exc.value.kind) == (row, col, "meet")

    meet = b3.meet_table.copy()
    meet[x, y] = b3.n  # out of range
    with pytest.raises(NotALattice):
        corrupted(b3, meet=meet).validate()


def corruptions(rng, table, count):
    """`count` seeded copies of a table, each with one or two entries set
    to -1, to n, to a random element or to another entry of its column."""
    n = table.shape[0]
    for _ in range(count):
        bad = table.copy()
        for _ in range(int(rng.integers(1, 3))):
            a, b = rng.integers(n, size=2)
            bad[a, b] = rng.choice([-1, n, rng.integers(n), table[rng.integers(n), b]])
        yield bad


def assert_faults_match_count_oracle(rng, lat, count):
    """validate names the same (a, b, kind) as the count oracle on `count`
    corruptions of each table of lat; returns how many it rejects."""
    faults = 0
    for kind in ("meet", "join"):
        for bad in corruptions(rng, getattr(lat, f"{kind}_table"), count):
            broken = corrupted(lat, **{kind: bad})
            want = first_fault(lambda leq: count_check_tables(
                leq, broken.meet_table, broken.join_table), lat.leq)
            assert first_fault(FiniteLattice.validate, broken) == want
            faults += want is not None
    return faults


def glued_chains(count, length):
    """`count` chains of `length` elements each between a common bottom and top."""
    n = count * length + 2
    covers = [(0, 1 + c * length) for c in range(count)]
    covers += [(1 + c * length + i, 2 + c * length + i)
               for c in range(count) for i in range(length - 1)]
    covers += [(c * length + length, n - 1) for c in range(count)]
    return from_covers(CoverList(n, tuple(covers)))


def test_glb_check_matches_count_oracle_on_corrupted_tables():
    rng = np.random.default_rng(26)
    pool = [lat for n in range(1, 8) for lat in catalog.enumerate_lattices(n)]
    faults = sum(assert_faults_match_count_oracle(rng, lat, 4) for lat in pool)
    assert 0.6 * 8 * len(pool) < faults < 8 * len(pool)
    m3 = relabeled(construct.m3_of(catalog.fano()).lattice, 26)
    assert assert_faults_match_count_oracle(rng, m3, 6) >= 10


def test_glb_check_matches_count_oracle_on_chains():
    # blocks of rows comparable with every element read no words; glued
    # chains of n > 64 take several words of all elements
    rng = np.random.default_rng(27)
    pool = [catalog.chain(n) for n in (1, 2, 3, 8, 65, 600)]
    pool += [glued_chains(count, length) for count, length in
             ((2, 1), (3, 2), (4, 3), (2, 40), (4, 150))]
    for lat in pool:
        lat.validate()
        assert assert_faults_match_count_oracle(rng, lat, 5) > 0


def order_pool():
    """Orders the cover index is checked on besides random posets: all 371
    lattices with <= 7 elements, a relabelled M3[Fano], chains and glued
    chains."""
    pool = [lat.leq for n in range(1, 8) for lat in catalog.enumerate_lattices(n)]
    pool.append(relabeled(construct.m3_of(catalog.fano()).lattice, 28).leq)
    pool += [catalog.chain(n).leq for n in (1, 2, 65, 600)]
    pool += [glued_chains(count, length).leq for count, length in ((3, 2), (4, 150))]
    return pool


def test_cover_index_matches_interval_oracle():
    # the 2,000 random posets of test_not_a_lattice_matches_cover_argmax_oracle
    # are compared there
    for leq in order_pool():
        want = interval_covers(leq)
        for check in (False, True):
            covers = core._CoverIndex(leq, check)
            assert (covers.pairs, covers.lower, covers.upper) == want


def test_cover_index_of_the_empty_order():
    """The 0 x 0 order has no cover pairs and no elements to list covers of,
    checked or not: its up-sets pack into rows of 0 bytes."""
    for check in (False, True):
        covers = core._CoverIndex(np.zeros((0, 0), dtype=bool), check)
        assert (covers.pairs, covers.lower, covers.upper) == ([], [], [])


def order_corruptions(rng, leq):
    """Seeded corrupted copies of the partial order leq: a diagonal entry
    cleared, a 2-cycle, a 3-cycle with no 2-cycle, a composite a <= c
    removed (one with an element strictly between), each where leq has
    one, and two of these at once."""
    n = leq.shape[0]
    strict = leq & ~np.eye(n, dtype=bool)
    f = strict.astype(np.float32)
    composite = (f @ f) > 0  # exact while n < 2**24
    x, y, z = rng.integers(n, size=(3, 500))
    # x -> y -> z -> x, each arc against no arc of the order
    cyclic = (x != y) & (y != z) & (z != x) & ~leq[y, x] & ~leq[z, y] & ~leq[x, z]

    def pick(mask):
        return tuple(rng.choice(np.argwhere(mask)))

    def diagonal(bad):
        a = int(rng.integers(n))
        bad[a, a] = False

    def two_cycle(bad):
        a, b = pick(strict)
        bad[b, a] = True

    def three_cycle(bad):
        i = int(np.flatnonzero(cyclic)[0])
        bad[x[i], y[i]] = bad[y[i], z[i]] = bad[z[i], x[i]] = True

    def composite_removed(bad):
        bad[pick(composite)] = False

    kinds = [diagonal]
    kinds += [two_cycle] if strict.any() else []
    kinds += [three_cycle] if cyclic.any() else []
    kinds += [composite_removed] if composite.any() else []
    corruptions = [(kind,) for kind in kinds]
    pairs = list(itertools.combinations(kinds, 2))
    if pairs:
        corruptions.append(pairs[int(rng.integers(len(pairs)))])
    for steps in corruptions:
        bad = leq.copy()
        for step in steps:
            step(bad)
        yield bad


def test_order_faults_match_interval_oracle():
    # the fault kind comes from the whole relation, as the oracle's checks
    # name it in order, not from where the pass fails
    rng = np.random.default_rng(22)
    pool = order_pool()
    pool += [random_poset(rng, int(rng.integers(2, 12))) for _ in range(2000)]
    rng = np.random.default_rng(27)
    kinds = collections.Counter()
    for leq in pool:
        for bad in order_corruptions(rng, leq):
            want = first_fault(interval_check_order, bad)
            assert want is not None
            assert first_fault(lambda o: core._CoverIndex(o, check=True), bad) == want
            assert first_fault(core.lattice_from_leq, bad) == want
            kinds[want[2]] += 1
    assert min(kinds[k] for k in ("reflexivity", "antisymmetry", "transitivity")) > 1000, kinds


def test_glb_check_falls_back_to_all_elements_off_join_density():
    b7 = catalog.boolean(7)  # 128 elements, 7 join- and 7 meet-irreducibles
    # y (element 128) covers the atoms {0} and {1} and lies below {0,1,2},
    # so neither {0,1} nor y is the lub of {0} and {1}
    two_lubs = np.zeros((129, 129), dtype=bool)
    two_lubs[:128, :128] = b7.leq
    two_lubs[[0, 1, 2, 128], 128] = True
    two_lubs[128, [s for s in range(128) if s & 7 == 7]] = True
    posets = {"no bottom": b7.leq[1:, 1:], "no top": b7.leq[:-1, :-1], "two lubs": two_lubs}
    for label, leq in posets.items():
        n = len(leq)
        covers = core._CoverIndex(leq, check=True)
        sides = [(leq, covers.lower), (leq.T, covers.upper)]
        # J packs into fewer words than all n on both sides; one side fails the test
        dense = [core._joins_dense(order, lower) for order, lower in sides]
        assert dense.count(False) == 1, label
        for (order, lower), ok in zip(sides, dense):
            assert core._words(sum(len(c) == 1 for c in lower)) < core._words(n)
            assert core._down_words(order, lower).shape == (1 if ok else core._words(n), n)
            table = core._candidate_glbs(order, lower)
            assert core._first_non_glb(order, table, lower) == count_first_non_glb(order, table)
        want = first_fault(lambda o: count_check_tables(o, *cover_argmax_tables(o)), leq)
        assert want is not None and first_fault(core.lattice_from_leq, leq) == want, label


def test_large_lattices_check_one_word_of_join_irreducibles():
    for lat in (construct.m3_of(catalog.fano()).lattice, catalog.subspace_lattice(2, 4)):
        covers = lat._cover_index()
        assert lat.n > 64
        for order, lower in ((lat.leq, covers.lower), (lat.leq.T, covers.upper)):
            assert core._down_words(order, lower).shape == (1, lat.n)


def test_covers_height_and_bounds_match_scalar_oracle(lattices):
    pool = list(lattices.values())
    pool += [lat for n in range(1, 7) for lat in catalog.enumerate_lattices(n)]
    pool += [relabeled(lat, 7) for lat in lattices.values()]
    for lat in pool:
        covers = scalar_covers(lat)
        assert lat.covers() == covers
        assert lat.height() == scalar_height(lat)
        for e in lat.elements():
            assert lat.lower_covers(e) == [lo for lo, hi in covers if hi == e]
            assert lat.upper_covers(e) == [hi for lo, hi in covers if lo == e]
        assert core.join_irreducibles(lat) == [
            e for e in lat.elements() if len([1 for _, hi in covers if hi == e]) == 1]
        assert core.meet_irreducibles(lat) == [
            e for e in lat.elements() if len([1 for lo, _ in covers if lo == e]) == 1]
        assert all(lat.le(lat.bottom, e) and lat.le(e, lat.top) for e in lat.elements())
    # a lattice built from its own tables finds its covers the same way
    for lat in pool[:len(lattices)]:
        again = FiniteLattice(lat.leq.copy(), lat.meet_table.copy(), lat.join_table.copy())
        assert again.covers() == lat.covers() and again.height() == lat.height()


def assert_isomorphism(a, b, image):
    assert image is not None and sorted(image) == list(range(a.n))
    img = np.asarray(image)
    assert np.array_equal(a.leq, b.leq[np.ix_(img, img)])


def stack_depth():
    """The number of frames on the caller's stack."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_find_isomorphism_past_the_recursion_limit(monkeypatch):
    # M_k's first path individualizes k - 1 atoms one at a time, and the
    # automorphism search walks all of it; the limit is set 60 frames above
    # this test's, since Aut(M_k) near the default limit of 1,000 takes some 40 s
    limit = stack_depth() + 60
    lat = catalog.m_k(limit + 2)
    other = relabeled(lat, 1090)
    levels, search = [], core._Search.search

    def recording(self, colors, level, prefix):
        found = search(self, colors, level, prefix)
        levels.append(len(self.path))
        return found

    monkeypatch.setattr(core._Search, "search", recording)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        group = lat.automorphisms()
        searched = len(levels)
        image = core.find_isomorphism(lat, other)
    finally:
        sys.setrecursionlimit(old)
    assert group.base_orbits == tuple(range(limit + 2, 1, -1))  # S_k on the atoms
    assert set(levels[:searched]) == {limit + 2}
    assert_isomorphism(lat, other, image)
    assert levels[searched:] == [1]  # matched at the root: no level below it built


def test_find_isomorphism_checks_operations():
    n5 = catalog.n5()
    join = n5.join_table.copy()
    join[1, 3] = join[3, 1] = 2  # not the join; the order is untouched
    with pytest.raises(VerificationFailed):
        core.find_isomorphism(n5, corrupted(n5, join=join))


def test_find_isomorphism_check_survives_optimize_flag(run_optimized):
    script = """
        from latmod import catalog, core
        from latmod.errors import VerificationFailed
        n5 = catalog.n5()
        meet = n5.meet_table.copy()
        meet[2, 3] = meet[3, 2] = 1
        bad = core.FiniteLattice(n5.leq.copy(), meet, n5.join_table.copy())
        try:
            core.find_isomorphism(n5, bad)
        except VerificationFailed:
            print("debug", __debug__, "raised")
    """
    words, err = run_optimized(script)
    assert words == ["debug", "False", "raised"], err


# -- automorphism generators ---------------------------------------------

@functools.lru_cache(maxsize=None)
def all_permutations(n):
    return np.array(list(itertools.permutations(range(n))))


def permuted_orders(lat):
    """Oracle helper: the order matrix relabelled by each of the n!
    permutations p, leq[p][:, p], one flattened row per permutation."""
    perms = all_permutations(lat.n)
    return lat.leq[perms[:, :, None], perms[:, None, :]].reshape(len(perms), -1)


def automorphism_count(lat):
    """Oracle: the number of permutations of the elements that preserve the
    order, by listing all n! of them."""
    return int((permuted_orders(lat) == lat.leq.ravel()).all(axis=1).sum())


def canonical_form(lat):
    """Oracle: the least of the n! relabelled order matrices, as bytes; two
    lattices of one size are isomorphic iff their forms are equal."""
    rows = np.packbits(permuted_orders(lat), axis=1)
    return rows[np.lexsort(rows.T[::-1])[0]].tobytes()


@functools.lru_cache(maxsize=None)
def small_classes():
    """The 371 lattices with at most 7 elements, grouped into isomorphism
    classes by canonical form, in order of first appearance."""
    classes = {}
    for lat in (lat for n in range(1, 8) for lat in catalog.enumerate_lattices(n)):
        classes.setdefault((lat.n, canonical_form(lat)), []).append(lat)
    return list(classes.values())


def test_find_isomorphism_matches_listing_oracle_on_small_classes():
    """Every ordered pair of same-size classes, the second relabelled: an
    isomorphism exactly when the classes are equal."""
    reps = [members[0] for members in small_classes()]
    assert len(reps) == 78
    copies = [relabeled(b, seed) for seed, b in enumerate(reps)]
    pairs = 0
    for i, a in enumerate(reps):
        for j, b in enumerate(copies):
            if a.n == b.n:
                pairs += 1
                image = core.find_isomorphism(a, b)
                if i == j:
                    assert_isomorphism(a, b, image)
                else:
                    assert image is None
    assert pairs == 3066


def test_small_lattices_match_their_class_representative():
    seen = 0
    for members in small_classes():
        for seed, lat in enumerate(members):
            rep = relabeled(members[0], seed)
            assert_isomorphism(lat, rep, core.find_isomorphism(lat, rep))
            seen += 1
    assert seen == 371


def test_find_isomorphism_decides_projective_geometries():
    """A projective plane or space and a relabelled copy: the group is
    transitive on points and on hyperplanes, so refinement alone splits no
    cell and the search must individualize."""
    for q, d in ((3, 3), (5, 3), (3, 4)):
        lat = catalog.subspace_lattice(q, d)
        other = relabeled(lat, 23)
        assert_isomorphism(lat, other, core.find_isomorphism(lat, other))


def element_orbits(lat, gens):
    """Oracle: the orbits of the generated group, by a search from each
    element over the generators."""
    seen, orbits = set(), 0
    for e in range(lat.n):
        if e not in seen:
            orbits += 1
            todo = [e]
            seen.add(e)
            while todo:
                u = todo.pop()
                for g in gens:
                    if g[u] not in seen:
                        seen.add(g[u])
                        todo.append(g[u])
    return orbits


def assert_automorphisms(lat, gens):
    for g in gens:
        assert sorted(g.tolist()) == list(range(lat.n))
        assert np.array_equal(lat.leq[np.ix_(g, g)], lat.leq)


def test_automorphism_group_order_matches_listing_on_small_lattices():
    small = [lat for n in range(1, 8) for lat in catalog.enumerate_lattices(n)]
    assert len(small) == 371
    for lat in small:
        group = lat.automorphisms()
        assert_automorphisms(lat, group.generators)
        assert int(np.prod(group.base_orbits)) == automorphism_count(lat)
        assert lat.automorphisms() is group  # cached on the lattice


def test_automorphism_orbits_of_m3_lattices():
    for base, orbits, order in ((catalog.fano(), 17, 1_008), (catalog.m_k(7), 8, 30_240)):
        lat = relabeled(construct.m3_of(base).lattice, 19)
        group = lat.automorphisms()
        assert_automorphisms(lat, group.generators)
        assert element_orbits(lat, group.generators.tolist()) == orbits
        assert int(np.prod(group.base_orbits)) == order


def pgl_order(q, d):
    """|PGL(d, q)| = q^(d(d-1)/2) (q^2 - 1) ... (q^d - 1)."""
    order = q ** (d * (d - 1) // 2)
    for i in range(2, d + 1):
        order *= q ** i - 1
    return order


def test_automorphism_groups_of_projective_geometries():
    """Aut Sub(d, q) = PGL(d, q) for d >= 3 and q prime (the fundamental
    theorem of projective geometry; a prime field has no automorphisms).
    On PG(2, 5) the search must backtrack past a first child."""
    for q, d in ((2, 3), (3, 3), (2, 4), (5, 3), (3, 4)):
        lat = relabeled(catalog.subspace_lattice(q, d), 23)
        group = lat.automorphisms()
        assert_automorphisms(lat, group.generators)
        assert int(np.prod(group.base_orbits)) == pgl_order(q, d)


def test_rigid_lattices_have_no_generators():
    assert catalog.chain(9).automorphisms().generators.shape == (0, 9)
    discrete = 0
    for seed in range(96):
        lat = catalog.random_c1c4(seed)
        colors = core._refine(core._digraph(lat.leq), np.zeros(lat.n, dtype=np.intp))
        if colors.max() + 1 == lat.n:
            discrete += 1
            group = lat.automorphisms()
            assert group.generators.shape == (0, lat.n) and group.base_orbits == ()
    assert discrete >= 50


def corrupted_candidate(lat):
    """The join-irreducibles of lat and their images under a generator of
    Aut(lat) with two images swapped: no automorphism."""
    joins = np.array(core.join_irreducibles(lat))
    images = lat.automorphisms().generators[0][joins]
    images[[0, 1]] = images[[1, 0]]
    return joins, images


def test_corrupted_automorphism_candidate_raises():
    lat = construct.m3_of(catalog.m_k(4)).lattice
    joins, images = corrupted_candidate(lat)
    good = lat.automorphisms().generators[0]
    assert np.array_equal(core._verified_isomorphism(lat, lat, joins, good[joins]), good)
    with pytest.raises(VerificationFailed):
        core._verified_isomorphism(lat, lat, joins, images)


def test_automorphism_check_survives_optimize_flag(run_optimized):
    script = """
        import numpy as np
        from latmod import catalog, construct, core
        from latmod.errors import VerificationFailed
        lat = construct.m3_of(catalog.m_k(4)).lattice
        joins = np.array(core.join_irreducibles(lat))
        images = lat.automorphisms().generators[0][joins]
        images[[0, 1]] = images[[1, 0]]
        try:
            core._verified_isomorphism(lat, lat, joins, images)
        except VerificationFailed:
            print("debug", __debug__, "raised")
    """
    words, err = run_optimized(script)
    assert words == ["debug", "False", "raised"], err
