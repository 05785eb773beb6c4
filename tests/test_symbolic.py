import itertools

import pytest

from latmod import symbolic
from latmod.errors import VerificationFailed
from latmod.rank import ClosureTrace, is_balanced3, step4
from latmod.symbolic import (
    BOT,
    INF,
    TOP,
    Y0,
    dhw_adjustment,
    dhw_lattice,
    dhw_similar,
    fig2_el,
    fig2_lattice,
)


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
    lat.validate_sample(els)
    # operations stay inside the carrier
    for a in els[::3]:
        for b in els[::4]:
            assert symbolic.dhw_contains(lat.meet(a, b))
            assert symbolic.dhw_contains(lat.join(a, b))


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


def test_ladder_order_relations():
    lat = fig2_lattice()
    x2, z5 = fig2_el("x", 2), fig2_el("z", 5)
    assert lat.meet(x2, z5) == fig2_el("c", 2)
    assert lat.meet(fig2_el("x", 5), fig2_el("z", 2)) == fig2_el("d", 2)
    assert lat.meet(fig2_el("x", 3), fig2_el("z", 3)) == fig2_el("w", 2)
    assert lat.join(x2, z5) == TOP
    assert lat.meet(x2, Y0) == fig2_el("c", 2)  # not below y0
    assert lat.le(BOT, x2) and lat.le(fig2_el("c", 2), x2)
    assert lat.le(fig2_el("s", 7), fig2_el("s", 3))  # descending chain


def test_ladder_axioms_on_truncation():
    lat = fig2_lattice()
    els = symbolic._fig2_truncation(3)
    lat.validate_sample(els)


def test_ladder_balanced_majorants():
    lat = fig2_lattice()
    for m in (0, 1, 4):
        t = (fig2_el("u", m), Y0, fig2_el("v", m))
        assert is_balanced3(lat, t)
        for a, b in itertools.combinations(t, 2):
            assert lat.meet(a, b) == fig2_el("s", m)
    assert not is_balanced3(lat, (fig2_el("x", 0), Y0, fig2_el("z", 0)))


def test_ladder_divergence():
    trace = symbolic.fig2_divergence(64)
    assert trace.stabilization_index is None
    assert len(trace.iterates) == 65
    assert trace.iterates[64] == (("x", 64), Y0, ("z", 64))


def test_bad_element_tags():
    with pytest.raises(ValueError):
        fig2_el("q", 1)
    with pytest.raises(ValueError):
        fig2_el("x", -2)


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


def test_validate_sample_raises_typed_errors():
    lat = dhw_lattice()
    broken = symbolic.OracleLattice(lat.le, lambda a, b: a, lat.join,
                                    lat.bottom, lat.top, name="left-meet")
    with pytest.raises(VerificationFailed, match="commutativity"):
        broken.validate_sample([(0, 0), (1, 1), (2, 2), (0, INF)])


def test_symbolic_checks_survive_optimize_flag(run_optimized):
    script = """
        from latmod import symbolic
        from latmod.errors import VerificationFailed
        from latmod.rank import ClosureTrace
        lat = symbolic.dhw_lattice()
        broken = symbolic.OracleLattice(lat.le, lambda a, b: a, lat.join,
                                        lat.bottom, lat.top)
        checks = [lambda: broken.validate_sample([(0, 0), (1, 1), (0, 2)])]
        symbolic.closure3 = lambda lat, s, cap: ClosureTrace(s, (s, s), 0, cap)
        checks.append(lambda: symbolic.fig2_divergence(4))
        for check in checks:
            try:
                check()
            except VerificationFailed:
                print("raised")
        print("debug", __debug__)
    """
    words, err = run_optimized(script)
    assert words == ["raised"] * 2 + ["debug", "False"], err
