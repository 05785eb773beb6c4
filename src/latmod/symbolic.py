"""Two infinite lattices as computable oracles, with divergence
demonstrations for the triple and quadruple closure iterations.

The first is a sublattice of extended-natural pairs with a parity
similarity relation; its meet and join follow three-case formulas with
a +/-1 adjustment in the dissimilar cases.  The second is a bounded
lattice built from two climbing ladders over a shared rail spine, a
side element, and two descending ladders; the triple iteration started
at the ladder feet climbs forever, which is what refutes lattice-ness
of its balanced-triple extension.
"""

from __future__ import annotations

from typing import Callable

from .errors import NotALattice, VerificationFailed
from .rank import ClosureTrace, Quadruple, Triple, closure3, step4

INF = float("inf")


def _dec(v):
    """Predecessor on extended naturals: infinity stays put."""
    return v if v == INF else v - 1


def _inc(v):
    return v if v == INF else v + 1


def dhw_similar(p, q) -> bool:
    """All finite coordinates among the four have equal parity."""
    finite = [v for v in (*p, *q) if v != INF]
    return all(x % 2 == finite[0] % 2 for x in finite)


class OracleLattice:
    """A lattice given by computed operations over a symbolic domain."""

    def __init__(self, le: Callable, meet: Callable, join: Callable, bottom, top):
        self._le = le
        self._meet = meet
        self._join = join
        self.bottom = bottom
        self.top = top

    def le(self, a, b) -> bool:
        return self._le(a, b)

    def meet(self, a, b):
        return self._meet(a, b)

    def join(self, a, b):
        return self._join(a, b)


# -- the parity-pair lattice ------------------------------------------------

def dhw_lattice() -> OracleLattice:
    def meet(p, q):
        (i, j), (k, l) = p, q
        if dhw_similar(p, q):
            return (min(i, k), min(j, l))
        if min(i, j) >= min(k, l):
            a = min(_dec(i), _dec(j))
            return (min(a, k), min(a, l))
        a = min(_dec(k), _dec(l))
        return (min(i, a), min(j, a))

    def join(p, q):
        (i, j), (k, l) = p, q
        if dhw_similar(p, q):
            return (max(i, k), max(j, l))
        if max(i, j) <= max(k, l):
            a = max(_inc(i), _inc(j))
            return (max(a, k), max(a, l))
        a = max(_inc(k), _inc(l))
        return (max(i, a), max(j, a))

    def le(p, q):
        return meet(p, q) == p

    return OracleLattice(le, meet, join, (0, 0), (INF, INF))


def dhw_base_quadruple() -> Quadruple:
    return Quadruple((0, INF), (1, INF), (INF, 1), (INF, 0))


def dhw_adjustment(n: int) -> list[Quadruple]:
    """The first n step-map iterates of the base quadruple (index 0 is the
    base itself).  The closed forms: the first coordinate is <2k+2, inf>
    at steps 2k+1 and 2k+2, the last <inf, 2k+2> there, the second
    <2k+1, inf> at steps 2k and 2k+1, the third <inf, 2k+1> there."""
    lat = dhw_lattice()
    out = [dhw_base_quadruple()]
    for _ in range(n):
        out.append(step4(lat, out[-1]))
    return out


# -- the double-ladder lattice ---------------------------------------------
#
# Element tags:
#   bot, top                 the bounds
#   c_k, d_k                 left and right rails, c_k v d_k = w_k
#   w_k                      rungs: bot < c_0,d_0 < w_0 < c_1,d_1 < w_1 < ...
#   x_k, z_k                 climbing ladders: x_k covers x_{k-1} and c_k
#   y0                       side element above the whole spine
#   s_m                      descending chain below y0, above the spine
#   u_m, v_m                 descending: u_m above all x_k and s_m;
#                            v_m above all z_k and s_m
#
# The stated relations hold: x_i ^ z_j = c_min(i,j) for i < j (d_min for
# i > j, the rung below for i = j), x_i v z_j = top, the triple
# (u_m, y0, v_m) is balanced with all pairwise meets s_m, and the triple
# iteration from (x_0, y0, z_0) yields (x_n, y0, z_n) forever.

BOT = ("bot", 0)
TOP = ("top", 0)
Y0 = ("y0", 0)


def _fig2_le(a, b) -> bool:
    if a == b or a == BOT or b == TOP:
        return True
    if b == BOT or a == TOP:
        return False
    ta, ka = a
    tb, kb = b
    spine = ta in ("c", "d", "w")
    if tb == "c":
        return spine and ka <= kb - 1 or a == b
    if tb == "d":
        return spine and ka <= kb - 1 or a == b
    if tb == "w":
        return spine and ka <= kb
    if tb == "x":
        return (ta == "x" and ka <= kb) or (ta == "c" and ka <= kb) \
            or (ta in ("d", "w") and ka <= kb - 1)
    if tb == "z":
        return (ta == "z" and ka <= kb) or (ta == "d" and ka <= kb) \
            or (ta in ("c", "w") and ka <= kb - 1)
    if tb == "y0":
        return spine or ta == "s"
    if tb == "s":
        return spine or (ta == "s" and ka >= kb)
    if tb == "u":
        return spine or ta == "x" or (ta in ("s", "u") and ka >= kb)
    if tb == "v":
        return spine or ta == "z" or (ta in ("s", "v") and ka >= kb)
    raise ValueError(f"unknown tag {tb}")


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


def fig2_lattice() -> OracleLattice:
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

    return OracleLattice(_fig2_le,
                         lambda a, b: bound(a, b, False),
                         lambda a, b: bound(a, b, True),
                         BOT, TOP)


def fig2_divergence(n: int) -> ClosureTrace:
    """Run the triple iteration from the ladder feet for n steps and check
    the divergence pattern: iterate k is (x_k, y0, z_k), strictly above its
    predecessor, yet below every balanced triple (u_m, y0, v_m)."""
    lat = fig2_lattice()
    start = Triple(("x", 0), Y0, ("z", 0))
    trace = closure3(lat, start, cap=n)
    if trace.stabilization_index is not None:
        raise VerificationFailed("the ladder iteration unexpectedly stabilized")
    for k, it in enumerate(trace.iterates[:n + 1]):
        if it != (("x", k), Y0, ("z", k)):
            raise VerificationFailed(f"iterate {k} is {it}, not (x_{k}, y0, z_{k})")
        if k:
            prev = trace.iterates[k - 1]
            if prev == it or not all(lat.le(p, q) for p, q in zip(prev, it)):
                raise VerificationFailed(f"iterate {k} is not strictly above iterate {k - 1}")
        for m in range(n + 1):
            ub = (("u", m), Y0, ("v", m))
            if not all(lat.le(p, q) for p, q in zip(it, ub)):
                raise VerificationFailed(f"iterate {k} is not below (u_{m}, y0, v_{m})")
    return trace
