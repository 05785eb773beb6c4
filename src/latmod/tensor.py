"""Semilattice tensor products as matrices of join-hom values, the
bi-ideal calculus behind them (bitmask rows, on the oracle route only),
and the bridge to the balanced-triple construction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import FiniteLattice, isotone_maps, join_irreducibles, lattice_from_leq, pointwise_order
from .construct import m3_of
from .errors import SizeLimitExceeded, VerificationFailed

TENSOR_CAP = 400


def _check_size(a: FiniteLattice, b: FiniteLattice):
    if a.n * b.n > TENSOR_CAP:
        raise SizeLimitExceeded(f"|A|*|B| = {a.n * b.n} above cap {TENSOR_CAP}")


def _down_masks(lat: FiniteLattice) -> list[int]:
    """down[e] is the bitmask of the elements below e (e included)."""
    packed = np.packbits(lat.leq.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Tables:
    """What the closure needs of A and B, as Python lists: B's down masks,
    A's strict lower sets, and both join tables."""

    def __init__(self, a: FiniteLattice, b: FiniteLattice):
        self.down_b = _down_masks(b)
        below = a.leq & ~np.eye(a.n, dtype=bool)
        self.below_a = [np.flatnonzero(below[:, x]).tolist() for x in range(a.n)]
        self.join_a = a.join_table.tolist()
        self.join_b = b.join_table.tolist()
        self.bottom_b = b.bottom

    def close(self, rows: list[int], todo: list[int]) -> tuple:
        """The least bi-ideal containing rows (changed in place).  The
        rows not listed in `todo` must satisfy the rules among themselves.

        A row closed in B is a down-set closed under joins, so the ideal
        below the join of its members.  A grown row is pushed down A's
        order and met with every other row at their join in A.
        """
        down, join_b, below_a, join_a = (self.down_b, self.join_b,
                                         self.below_a, self.join_a)
        na = len(rows)
        while todo:
            x = todo.pop()
            top = self.bottom_b
            for y in _bits(rows[x]):
                top = join_b[top][y]
            row = rows[x] = down[top]
            for x2 in below_a[x]:
                if row & ~rows[x2]:
                    rows[x2] |= row
                    todo.append(x2)
            joins = join_a[x]
            for x1 in range(na):
                common = row & rows[x1]
                xj = joins[x1]
                if common & ~rows[xj]:
                    rows[xj] |= common
                    todo.append(xj)
        return tuple(rows)


def nabla(a: FiniteLattice, b: FiniteLattice) -> tuple:
    """The least bi-ideal: everything with a zero coordinate.

    A bi-ideal of A x B is a tuple of rows, rows[x] the bitmask of its
    members ⟨x, ·⟩: downward closed componentwise, containing every ⟨x,0⟩
    and ⟨0,y⟩, and closed under joins in either coordinate with the other
    fixed."""
    full = (1 << b.n) - 1
    zb = 1 << b.bottom
    return tuple(full if x == a.bottom else zb for x in range(a.n))


def _largest_members(ideals, down: list[int]) -> list[tuple]:
    """For each row of each bi-ideal, its member y with every member below
    y: the y whose down mask is the row.  A hereditary row holding such a
    y equals ↓y, so a row that is no down mask has no largest member."""
    principal = {mask: y for y, mask in enumerate(down)}
    out = []
    for rows in ideals:
        values = []
        for row in rows:
            top = principal.get(row)
            if top is None:
                raise VerificationFailed(f"row {row:#b} has no largest member")
            values.append(top)
        out.append(tuple(values))
    return out


def all_join_homs(a: FiniteLattice, b: FiniteLattice) -> np.ndarray:
    """The maps h from A to B turning joins into meets and A's zero into B's
    top (the bi-ideal picture), as the rows of an intp array, one value per
    A element.  Such an h is antitone and h(x) is the meet of h over the
    join-irreducibles below x, so each antitone assignment on J(A)
    (`isotone_maps` of its dual order, in that order) gives one candidate,
    valued at a join-reducible x as the meet over x's lower covers.  It is
    a hom iff h(x v y) = h(x) ^ h(y) on incomparable pairs; on comparable
    ones antitony gives it."""
    ji = join_irreducibles(a)
    assign = isotone_maps(a.leq[ji][:, ji].T, b)
    meet = b.meet_table
    values = [None] * a.n
    for k, j in enumerate(ji):
        values[j] = assign[:, k]
    values[a.bottom] = np.full(len(assign), b.top, dtype=assign.dtype)
    for x in np.argsort(a.leq.sum(axis=0), kind="stable").tolist():
        if values[x] is None:  # joins its lower covers, all valued already
            lower = a.lower_covers(x)
            v = values[lower[0]]
            for c in lower[1:]:
                v = meet[v, values[c]]
            values[x] = v
    ok = np.ones(len(assign), dtype=bool)
    for x0, x1 in zip(*(~(a.leq | a.leq.T)).nonzero()):
        if x0 < x1:
            ok &= values[a.join(x0, x1)] == meet[values[x0], values[x1]]
    return np.array([v[ok] for v in values], dtype=np.intp).T


def _inclusion_order(ideals, nb: int) -> np.ndarray:
    """leq[i, j] = ideals[i] ⊆ ideals[j], from the count of members of i
    outside j: one float32 product of the membership bits (exact, as a
    count is at most |A|*|B|)."""
    width = (nb + 7) // 8
    buf = b"".join(r.to_bytes(width, "little") for rows in ideals for r in rows)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little")
    member = bits.reshape(len(ideals), -1, 8 * width)[:, :, :nb]
    member = member.reshape(len(ideals), -1).astype(np.float32)
    return member @ (1 - member).T == 0


def enumerate_bi_ideals(a: FiniteLattice, b: FiniteLattice) -> list[tuple]:
    r"""All bi-ideals, sorted by rows, by closure-system search.  This is
    the independent oracle route, not the hom-based default.

    The successors of a found bi-ideal I are the closures of I plus one
    pair ⟨x, y⟩ minimal in (A×B) \ I: every ⟨x, y'⟩ with y' < y and
    every ⟨x', y⟩ with x' < x is in I (I is down-closed, so the pairs
    strictly below ⟨x, y⟩ are then all in I).  This reaches every
    bi-ideal J from nabla: if J ⊋ I, a minimal pair p of J \ I has all
    pairs strictly below it in J (J is down-closed) but not in J \ I, so
    p is minimal in (A×B) \ I, and the closure of I plus p lies in J and
    strictly above I.
    """
    _check_size(a, b)
    t = _Tables(a, b)
    full = (1 << b.n) - 1
    strict_down = [d & ~(1 << y) for y, d in enumerate(t.down_b)]
    start = nabla(a, b)
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for x, row in enumerate(cur):
            # y outside row x but in every row below x
            fresh = full & ~row
            for x2 in t.below_a[x]:
                fresh &= cur[x2]
            for y in _bits(fresh):
                if strict_down[y] & ~row:
                    continue
                rows = list(cur)
                rows[x] |= 1 << y
                nxt = t.close(rows, [x])
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return sorted(seen)


@dataclass(frozen=True, eq=False)
class TensorLattice:
    """A (x) B: row i of `homs` is the join-hom, one value per element of
    A, of the bi-ideal with id i in `lattice`."""

    left: FiniteLattice
    right: FiniteLattice
    homs: np.ndarray
    lattice: FiniteLattice

    def __len__(self):
        return len(self.homs)


def tensor_product(a: FiniteLattice, b: FiniteLattice) -> TensorLattice:
    """The lattice of all bi-ideals of A x B under inclusion, held as the
    join-homs h they correspond to: the bi-ideal of h has row ↓h(x) at x
    (`enumerate_bi_ideals` is the oracle route).

    The rows are in the order of the bi-ideals sorted by their row masks,
    which compares h column by column through the rank of the down mask
    of each value, and element i is named I{i}#{size of its bi-ideal}.
    As ↓u ⊆ ↓v iff u <= v, inclusion is B's order pointwise."""
    _check_size(a, b)
    homs = all_join_homs(a, b)
    down = _down_masks(b)
    mask_rank = np.empty(b.n, dtype=np.intp)
    mask_rank[sorted(range(b.n), key=down.__getitem__)] = np.arange(b.n)
    homs = homs[np.lexsort(mask_rank[homs].T[::-1])]
    sizes = b.leq.sum(axis=0)[homs].sum(axis=1)
    names = [f"I{i}#{s}" for i, s in enumerate(sizes.tolist())]
    lat = lattice_from_leq(pointwise_order(b, homs), names=names,
                           name=f"{a.name or 'A'}(x){b.name or 'B'}")
    return TensorLattice(a, b, homs, lat)


@dataclass(frozen=True)
class ReprReport:
    hom_count: int
    ideal_count: int
    bijective: bool
    order_iso: bool
    routes_agree: bool

    @property
    def passed(self) -> bool:
        return self.bijective and self.order_iso and self.routes_agree


def verify_repr_iso(a: FiniteLattice, b: FiniteLattice,
                    tp: Optional[TensorLattice] = None) -> ReprReport:
    """Check the tensor product against the bi-ideals of the oracle route
    (`enumerate_bi_ideals`): they are the bi-ideals of its homs, in order;
    I -> phi_I (each row's largest member) maps them one to one onto its
    homs; and their inclusion order is its lattice order.  A
    `tensor_product(a, b)` already built can be passed as `tp`; it is
    checked instead of built again."""
    _check_size(a, b)
    if tp is None or tp.left is not a or tp.right is not b:
        tp = tensor_product(a, b)
    oracle = enumerate_bi_ideals(a, b)
    down = _down_masks(b)
    homs = list(map(tuple, tp.homs.tolist()))
    routes_agree = oracle == [tuple(down[v] for v in h) for h in homs]
    images = _largest_members(oracle, down)
    bijective = images == homs and len(set(images)) == len(images)
    order_iso = np.array_equal(tp.lattice.leq, _inclusion_order(oracle, b.n))
    return ReprReport(len(homs), len(oracle), bijective, order_iso,
                      routes_agree)


@dataclass(frozen=True)
class M3TensorReport:
    tensor_size: int
    triple_lattice_size: int
    images_balanced: bool
    explicit_iso: bool

    @property
    def passed(self) -> bool:
        return (self.tensor_size == self.triple_lattice_size
                and self.images_balanced and self.explicit_iso)


def verify_m3_tensor_iso(l: FiniteLattice,
                         tp: Optional[TensorLattice] = None) -> M3TensorReport:
    """Check M_3 (x) L against the balanced-triple lattice over L via the
    explicit map sending a hom to its values on the three atoms.  A tensor
    lattice already built is reused as `tp` when it is the catalog M_3
    times l."""
    from .catalog import m_k  # noqa: PLC0415
    m3 = m_k(3)
    if (tp is None or tp.right is not l or tp.left.names != m3.names
            or not np.array_equal(tp.left.leq, m3.leq)):
        tp = tensor_product(m3, l)
    k = m3_of(l)
    atoms = [m3.index_of(s) for s in "abc"]
    triples = tp.homs[:, atoms]
    ids = k.ids(triples.T)
    balanced = bool((ids >= 0).all())
    explicit = False
    if balanced and np.unique(ids).size == ids.size == len(k):
        # tp.lattice.leq is B's order pointwise on tp.homs; balanced triples
        # are ordered componentwise, which also holds above
        # EAGER_TABLE_CAP, where k has no lattice tables
        explicit = np.array_equal(tp.lattice.leq, pointwise_order(l, triples))
    return M3TensorReport(len(tp), len(k), balanced, explicit)
