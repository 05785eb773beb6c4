import itertools

import pytest

from conftest import is_balanced3
from latmod import symbolic
from latmod.errors import NotALattice, VerificationFailed
from latmod.rank import ClosureTrace, closure3, step4
from latmod.symbolic import (
    BOT,
    INF,
    TOP,
    Y0,
    _fig2_le,
    dhw_adjustment,
    dhw_lattice,
    dhw_similar,
    fig2_lattice,
)


def assert_lattice_axioms(lat, elements):
    """Oracle: the lattice laws on a finite sample of an infinite lattice."""
    for a in elements:
        assert lat.meet(a, a) == a and lat.join(a, a) == a
    for a, b in itertools.combinations(elements, 2):
        m, j = lat.meet(a, b), lat.join(a, b)
        assert m == lat.meet(b, a) and j == lat.join(b, a)
        assert lat.join(a, m) == a and lat.meet(a, j) == a
        assert lat.le(m, a) and lat.le(m, b) and lat.le(a, j) and lat.le(b, j)
        assert lat.le(a, b) == (m == a) == (j == b)
    for a, b, c in itertools.combinations(elements, 3):
        assert lat.meet(lat.meet(a, b), c) == lat.meet(a, lat.meet(b, c))
        assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))


def test_parity_similarity():
    assert dhw_similar((0, 2), (4, INF))
    assert dhw_similar((INF, INF), (3, 1))
    assert not dhw_similar((0, 2), (3, INF))
    assert not dhw_similar((1, 2), (INF, INF))


def test_parity_pair_hand_meets_and_joins():
    lat = dhw_lattice()
    assert lat.meet((2, 4), (4, 2)) == (2, 2)
    assert lat.join((2, 4), (4, 2)) == (4, 4)
    assert lat.meet((1, INF), (2, 2)) == (1, 1)
    assert lat.join((1, INF), (0, 2)) == (3, INF)
    assert lat.meet((0, INF), (INF, 0)) == (0, 0)
    assert lat.le((0, 0), (INF, INF))
    assert not lat.le((1, INF), (2, 2))


def test_parity_pair_axioms_on_sample():
    els = [(i, j) for i in (0, 1, 2, 3, 4, 5, INF)
           for j in (0, 1, 2, 3, 4, 5, INF)
           if dhw_similar((i, j), (i, j))]
    lat = dhw_lattice()
    assert_lattice_axioms(lat, els)
    # operations stay inside the carrier
    for a in els[::3]:
        for b in els[::4]:
            assert dhw_similar(lat.meet(a, b), (INF, INF))
            assert dhw_similar(lat.join(a, b), (INF, INF))


def test_parity_pair_closed_forms():
    seq = dhw_adjustment(64)
    for k in range(32):
        for step in (2 * k + 1, 2 * k + 2):
            assert seq[step][0] == (2 * k + 2, INF)
            assert seq[step][3] == (INF, 2 * k + 2)
        for step in (2 * k, 2 * k + 1):
            assert seq[step][1] == (2 * k + 1, INF) if step else True
            assert seq[step][2] == (INF, 2 * k + 1) if step else True
    assert seq[0] == symbolic.dhw_base_quadruple()


def test_parity_pair_never_stabilizes():
    seq = dhw_adjustment(64)
    lat = dhw_lattice()
    for prev, cur in zip(seq, seq[1:]):
        assert prev != cur
        assert all(lat.le(p, q) for p, q in zip(prev, cur))
    assert step4(lat, seq[-1]) != seq[-1]


# -- the double ladder's test oracle: bounds by search --------------------
#
# The greatest lower (least upper) bound of a and b found from the order
# `_fig2_le` alone, among the elements of index at most max + 2; the
# closed-form meet and join of `fig2_lattice` must agree with it.

def _fig2_truncation(k: int) -> list:
    out = [BOT, TOP, Y0]
    for tag in ("c", "d", "w", "x", "z", "s", "u", "v"):
        out.extend((tag, i) for i in range(k + 1))
    return out


def _fig2_extreme(cands: list, upper: bool):
    """The greatest (or least) element of a finite nonempty set, if any."""
    best = None
    for e in cands:
        if best is None or (_fig2_le(best, e) if upper else _fig2_le(e, best)):
            best = e
    for e in cands:
        if not (_fig2_le(e, best) if upper else _fig2_le(best, e)):
            return None
    return best


def bound(a, b, upper: bool):
    k = max(a[1], b[1]) + 2
    if upper:
        cands = [e for e in _fig2_truncation(k)
                 if _fig2_le(a, e) and _fig2_le(b, e)]
    else:
        cands = [e for e in _fig2_truncation(k)
                 if _fig2_le(e, a) and _fig2_le(e, b)]
    got = _fig2_extreme(cands, upper=not upper)
    if got is None:
        raise NotALattice(a, b, "join" if upper else "meet")
    return got


def test_ladder_closed_forms_match_bound_search():
    lat = fig2_lattice()
    els = _fig2_truncation(8)
    assert len(els) == 75
    for a in els:
        for b in els:
            assert lat.meet(a, b) == bound(a, b, False), (a, b)
            assert lat.join(a, b) == bound(a, b, True), (a, b)


def test_ladder_order_relations():
    lat = fig2_lattice()
    x2, z5 = ("x", 2), ("z", 5)
    assert lat.meet(x2, z5) == ("c", 2)
    assert lat.meet(("x", 5), ("z", 2)) == ("d", 2)
    assert lat.meet(("x", 3), ("z", 3)) == ("w", 2)
    assert lat.join(x2, z5) == TOP
    assert lat.meet(x2, Y0) == ("c", 2)  # not below y0
    assert lat.le(BOT, x2) and lat.le(("c", 2), x2)
    assert lat.le(("s", 7), ("s", 3))  # descending chain


def test_ladder_axioms_on_truncation():
    lat = fig2_lattice()
    els = _fig2_truncation(5)
    assert_lattice_axioms(lat, els)


def test_ladder_balanced_majorants():
    lat = fig2_lattice()
    for m in (0, 1, 4):
        t = (("u", m), Y0, ("v", m))
        assert is_balanced3(lat, t)
        for a, b in itertools.combinations(t, 2):
            assert lat.meet(a, b) == ("s", m)
    assert not is_balanced3(lat, (("x", 0), Y0, ("z", 0)))


def test_ladder_divergence():
    for n in (64, 256):
        trace = symbolic.fig2_divergence(n)
        assert trace.stabilization_index is None
        assert len(trace.iterates) == n + 1
        assert trace.iterates[n] == (("x", n), Y0, ("z", n))


def test_bad_element_tags():
    lat = fig2_lattice()
    bad_elements = (("q", 1), ("y1", 0), ("y0", 5), ("bot", 1), ("top", 2),
                    ("x", -1), ("s", 1.0), ("u", True), ("c", "1"))
    for bad in bad_elements:
        for good in (("x", 0), BOT, TOP, Y0, bad):
            for op in (lat.le, lat.meet, lat.join):
                for args in ((good, bad), (bad, good)):
                    with pytest.raises(ValueError, match="unknown tag"):
                        op(*args)


def stalled_closure3(lat, start, cap):
    """A stand-in for closure3 whose iteration stabilizes at once."""
    return ClosureTrace(start, (start, start), 0, cap)


def skipping_closure3(lat, start, cap):
    """A stand-in for closure3 that jumps two rungs a step."""
    its = tuple((("x", 2 * k), Y0, ("z", 2 * k)) for k in range(cap + 1))
    return ClosureTrace(start, its, None, cap)


def test_divergence_check_raises_typed_errors(monkeypatch):
    for fake in (stalled_closure3, skipping_closure3):
        monkeypatch.setattr(symbolic, "closure3", fake)
        with pytest.raises(VerificationFailed):
            symbolic.fig2_divergence(4)


def broken_order(pairs):
    """_fig2_le with the given pairs (a, b) no longer a <= b; the ladder
    iteration never asks for them, so only the checks see the change."""
    def le(a, b):
        return (a, b) not in pairs and _fig2_le(a, b)
    return le


# x_2 below the majorant u_4 of fig2_divergence(4), and the link v_3 <= v_2
BROKEN_ORDERS = ({(("x", 2), ("u", 4))}, {(("v", 3), ("v", 2))})


def test_divergence_check_catches_a_broken_majorant_or_chain_link(monkeypatch):
    """The divergence check reads each iterate against (u_n, y0, v_n) only,
    and the chains u_m, v_m link by link: an order that drops one iterate's
    majorant or one link fails it, with the iteration itself unchanged."""
    want = symbolic.fig2_divergence(4)
    for pairs in BROKEN_ORDERS:
        monkeypatch.setattr(symbolic, "_fig2_le", broken_order(pairs))
        assert closure3(fig2_lattice(), want.initial, cap=4) == want
        with pytest.raises(VerificationFailed):
            symbolic.fig2_divergence(4)


def test_divergence_check_survives_optimize_flag(run_optimized):
    script = """
        from latmod import symbolic
        from latmod.errors import VerificationFailed
        real = symbolic._fig2_le
        for pairs in %r:
            symbolic._fig2_le = lambda a, b, pairs=pairs: (a, b) not in pairs and real(a, b)
            try:
                symbolic.fig2_divergence(4)
            except VerificationFailed:
                print("raised")
        print("debug", __debug__)
    """ % (BROKEN_ORDERS,)
    words, err = run_optimized(script)
    assert words == ["raised", "raised", "debug", "False"], err


def test_symbolic_checks_survive_optimize_flag(run_optimized):
    script = """
        from latmod import symbolic
        from latmod.errors import VerificationFailed
        from latmod.rank import ClosureTrace
        symbolic.closure3 = lambda lat, s, cap: ClosureTrace(s, (s, s), 0, cap)
        try:
            symbolic.fig2_divergence(4)
        except VerificationFailed:
            print("raised")
        print("debug", __debug__)
    """
    words, err = run_optimized(script)
    assert words == ["raised", "debug", "False"], err
