"""Two infinite lattices as computable oracles, with divergence
demonstrations for the triple and quadruple closure iterations.

The first is a sublattice of extended-natural pairs with a parity
similarity relation; its meet and join follow three-case formulas with
a +/-1 adjustment in the dissimilar cases.  The second is a bounded
lattice built from two climbing ladders over a shared rail spine, a
side element, and two descending ladders; the triple iteration started
at the ladder feet climbs forever, which is what refutes lattice-ness
of its balanced-triple extension.

Both lattices have closed-form operations.  The double ladder's meet and
join are derived from its order `_fig2_le`, which defines it; the tests
check them against a search of finite truncations for greatest lower and
least upper bounds, and `_fig2_le` rejects anything that is not an
element with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import VerificationFailed
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


@dataclass(frozen=True)
class OracleLattice:
    """A lattice given by computed operations over a symbolic domain."""

    le: Callable
    meet: Callable
    join: Callable
    bottom: object
    top: object


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


# The largest index of each tag: bot, top and y0 carry index 0 only.
_FIG2_MAX_INDEX = {"bot": 0, "top": 0, "y0": 0, **dict.fromkeys("cdwxzsuv", INF)}
_FIG2_SPINE = frozenset("cdw")
_FIG2_SIDE = frozenset({"y0", "s", "u", "v"})
_FIG2_RAIL = {"x": "c", "z": "d"}  # the rail each climbing ladder covers
_FIG2_CAP = {"x": "u", "z": "v"}  # the descending chain above each ladder


def _fig2_le(a, b) -> bool:
    """The order of the double ladder, which defines it; both arguments
    must be elements (ValueError otherwise)."""
    ta, ka = a
    tb, kb = b
    if not (type(ka) is int and 0 <= ka <= _FIG2_MAX_INDEX.get(ta, -1)
            and type(kb) is int and 0 <= kb <= _FIG2_MAX_INDEX.get(tb, -1)):
        raise ValueError(f"unknown tag or bad index in ladder elements {a!r}, {b!r}")
    if a == b or ta == "bot" or tb == "top":
        return True
    if tb == "bot" or ta == "top":
        return False
    spine = ta in _FIG2_SPINE
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
    return spine or ta == "z" or (ta in ("s", "v") and ka >= kb)  # tb == "v"


def _fig2_spine_below(e):
    """The greatest spine element below e, for e not bot or top: e itself
    on the spine, c_k below x_k, d_k below z_k; None for y0, s, u and v,
    which lie above the whole spine."""
    tag, k = e
    if tag in _FIG2_RAIL:
        return (_FIG2_RAIL[tag], k)
    return e if tag in _FIG2_SPINE else None


def _fig2_meet(a, b):
    if _fig2_le(a, b):
        return a
    if _fig2_le(b, a):
        return b
    # a and b are incomparable: two of y0, s, u, v meet in s at the larger
    # index; otherwise the meet lies on the spine, a chain but for
    # c_k || d_k, whose meet is the rung below
    (ta, ka), (tb, kb) = a, b
    if ta in _FIG2_SIDE and tb in _FIG2_SIDE:
        return ("s", max(ka, kb))  # y0's index is 0
    ea, eb = _fig2_spine_below(a), _fig2_spine_below(b)
    if ea is None or eb is None:
        return eb if ea is None else ea
    if _fig2_le(ea, eb):
        return ea
    if _fig2_le(eb, ea):
        return eb
    k = ea[1]  # ea, eb are c_k and d_k
    return ("w", k - 1) if k else BOT


def _fig2_join(a, b):
    if _fig2_le(a, b):
        return b
    if _fig2_le(b, a):
        return a
    # a and b are incomparable: c_k v d_k = w_k; a ladder joined with a
    # spine element climbs to the first rung above both; two of x, s, u
    # join in u at the least s/u index (z, s, v in v); all else in top
    (ta, ka), (tb, kb) = a, b
    if ta in _FIG2_SPINE and tb in _FIG2_SPINE:
        return ("w", ka)  # c_k v d_k
    for (tl, kl), (te, ke) in ((a, b), (b, a)):
        if tl in _FIG2_RAIL and te in _FIG2_SPINE:
            # the least j with e_k <= l_j: k on the rail that l covers,
            # k + 1 on the other rail and the rungs
            j = ke if te == _FIG2_RAIL[tl] else ke + 1
            return (tl, max(kl, j))
    for ladder, cap in _FIG2_CAP.items():
        family = (ladder, "s", cap)
        if ta in family and tb in family:
            return (cap, min(k for t, k in (a, b) if t != ladder))
    return TOP


def fig2_lattice() -> OracleLattice:
    """The double ladder, with closed-form meet and join derived from
    `_fig2_le` (the tests check them against a search of a finite
    truncation for greatest lower and least upper bounds)."""
    return OracleLattice(_fig2_le, _fig2_meet, _fig2_join, BOT, TOP)


def fig2_divergence(n: int) -> ClosureTrace:
    """Run the triple iteration from the ladder feet for n steps and check
    the divergence pattern: iterate k is (x_k, y0, z_k), strictly above its
    predecessor, yet below every balanced triple (u_m, y0, v_m), m <= n.

    The last is checked as each iterate below (u_n, y0, v_n) and each link
    u_{m+1} <= u_m, v_{m+1} <= v_m of the descending chains: 3(n+1) + 2n
    order tests, not 3(n+1)^2, which transitivity of `_fig2_le` makes
    equivalent."""
    lat = fig2_lattice()
    start = Triple(("x", 0), Y0, ("z", 0))
    trace = closure3(lat, start, cap=n)
    if trace.stabilization_index is not None:
        raise VerificationFailed("the ladder iteration unexpectedly stabilized")
    for m in range(n):
        for chain in ("u", "v"):
            if not lat.le((chain, m + 1), (chain, m)):
                raise VerificationFailed(f"{chain}_{m + 1} is not below {chain}_{m}")
    ub = (("u", n), Y0, ("v", n))
    for k, it in enumerate(trace.iterates[:n + 1]):
        if it != (("x", k), Y0, ("z", k)):
            raise VerificationFailed(f"iterate {k} is {it}, not (x_{k}, y0, z_{k})")
        if k:
            prev = trace.iterates[k - 1]
            if prev == it or not all(lat.le(p, q) for p, q in zip(prev, it)):
                raise VerificationFailed(f"iterate {k} is not strictly above iterate {k - 1}")
        if not all(lat.le(p, q) for p, q in zip(it, ub)):
            raise VerificationFailed(f"iterate {k} is not below (u_{n}, y0, v_{n})")
    return trace
