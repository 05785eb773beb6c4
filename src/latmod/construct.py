"""Lattices of balanced triples and quadruples over a base lattice,
their canonical embeddings, and the isotone-map power construction."""

from __future__ import annotations

import functools

import numpy as np

from .core import (
    FiniteLattice,
    is_distributive,
    isotone_maps,
    join_irreducibles,
    lattice_from_leq,
    pointwise_order,
)
from .errors import NotDistributive, SizeLimitExceeded, VerificationFailed
from .rank import _closures, _decode, _encode, _key_count

EAGER_TABLE_CAP = 2000
# characters in all element names of a tuple lattice's tables: 2,000 elements
# of 500 characters.  A layer of m3[...] triples each name's length, and M3[C1]
# has one element, so the table cap alone lets names grow without bound
NAME_CHAR_CAP = 1 << 20
_GRID_ENTRIES = 1 << 16  # pairs per numpy block of the tables and of congruence's joins
# pairs per block when the depth reads join keys: blocks of 2^16 took about
# twice as long on census grids and on M3[Sub(3,3)], blocks of 2^12 longer
_MARK_ENTRIES = 1 << 14


class TupleLattice:
    """A lattice whose elements are tuples over a base lattice, with
    componentwise meets and closure-iterated joins.

    Element ids follow the lexicographic order of the tuples, given as one
    column of entries per coordinate.  Every operation reads one map over
    the n^arity tuple keys, key -> id of its closure under the step map,
    which the base holds for all its tuple lattices of one arity
    (`rank._closures`; SizeLimitExceeded above `rank.KEY_CAP` keys, before
    it is allocated); a balanced tuple, such as a meet, is its own closure.
    `meet` and `join` act on id arrays at any size; `lattice` holds their
    count^2 tables, built on first access, and raises SizeLimitExceeded
    above EAGER_TABLE_CAP elements.
    """

    def __init__(self, base: FiniteLattice, cols: list, name: str):
        self.base = base
        self.cols = cols
        self.arity = len(cols)
        self.name = name

    def __len__(self):
        return self.cols[0].size

    def tuple_name(self, i: int) -> str:
        return "<" + ",".join(self.base.names[c[i]] for c in self.cols) + ">"

    @functools.cached_property
    def _closed(self) -> tuple:
        """Key -> id of its closure, and key -> its closure index: the
        base's read-only closure table for this arity (`rank._closures`),
        tabulated once per base and shared with its rank scans and with
        every tuple lattice of the same base and arity."""
        return _closures(self.base, self.arity)

    @property
    def index(self) -> np.ndarray:
        """The key -> id map with one axis per coordinate: index[t] is the
        id of the tuple t, -1 when t is not balanced (bench/make_refs.py
        reads it); `ids` takes columns.  Built on each access."""
        closed, index = self._closed
        return np.where(index == 0, closed, -1).reshape((self.base.n,) * self.arity)

    def ids(self, cols) -> np.ndarray:
        """The ids of tuples given as coordinate columns, -1 for a tuple
        that is not balanced; ids(t) of one tuple t is its id."""
        closed, index = self._closed
        keys = _encode(self.base.n, cols)
        return np.where(index.take(keys) == 0, closed.take(keys), -1)

    @property
    def bottom(self) -> int:
        """The id of <0,...,0>."""
        return int(self.ids([self.base.bottom] * self.arity))

    @functools.cached_property
    def _weights(self) -> dict:
        """The base's meet and join tables, each once per coordinate i
        times n^(arity-1-i), int32: entry (x, y) of coordinate i's table is
        op(x, y)'s share of a key.  SizeLimitExceeded above KEY_CAP keys
        comes first; below it every key fits in int32.  2 * arity * n^2
        entries."""
        n, arity = self.base.n, self.arity
        _key_count(self.base, arity)
        return {op: [table * np.int32(n ** (arity - 1 - i)) for i in range(arity)]
                for op, table in (("meet", self.base.meet_table),
                                  ("join", self.base.join_table))}

    def _key(self, op: str, a, b) -> np.ndarray:
        """The keys of the componentwise op(a_i, b_i), op "meet" or "join",
        of the elements a and b, broadcast: ids, id arrays, or any index of
        the columns (the depth passes slices, which take no copy).  Each
        coordinate adds its weighted table's entries (`_weights`).  An outer
        product, a a scalar or a column (p, 1) and b a scalar, a vector or
        a row (1, q), gathers the weighted rows at a's entries and then
        their columns at b's, per coordinate; other shapes take the entries
        of the flat tables at a_i * n + b_i.  Against building each key
        entry by entry, the rows-then-columns gathers took M3[Fano]'s tables
        from 21-26 to 12-13 ms (2-core Xeon); gathering the columns by
        `take(axis=1)` instead of indexing took 14 ms.  A single row, as in
        the depth's blocks over a long row, takes its columns by a 1-D take:
        indexing a (1, n) row took twice as long (450 against 240 us a block
        of M3[Sub(2,4)], where the flat take took 310 us)."""
        first, n = self.cols[0], self.base.n
        sa, sb = np.shape(first[a]), np.shape(first[b])
        outer = (sa == () or sa[1:] == (1,)) and (len(sb) < 2 or sb == (1, sb[1]))
        key = None
        for c, w in zip(self.cols, self._weights[op]):
            if outer:
                rows = w.take(np.ravel(c[a]), axis=0)
                part = rows[0].take(c[b]) if len(rows) == 1 else rows[:, np.ravel(c[b])]
            else:
                part = w.ravel().take(c[a] * n + c[b])
            if key is None:
                key = part
            else:
                key += part
        return key.reshape(np.broadcast_shapes(sa, sb))

    def meet(self, a, b) -> np.ndarray:
        """The meets of the elements a and b, ids or id arrays, broadcast."""
        return self._closed[0].take(self._key("meet", a, b))

    def join(self, a, b) -> np.ndarray:
        """The joins of the elements a and b, ids or id arrays, broadcast:
        the closures of their componentwise joins."""
        return self._closed[0].take(self._key("join", a, b))

    @functools.cached_property
    def lattice(self) -> FiniteLattice:
        """The meet and join tables, built on first access by `meet` and
        `join` a block of rows at a time, each block one outer product of
        the key rule (`_key`: weighted base rows at the block's entries,
        then their columns at every element's); whole count^2 temporaries
        left holes in the heap that raised the peak RSS of later work.
        SizeLimitExceeded above EAGER_TABLE_CAP, or when the element names
        would take more than NAME_CHAR_CAP characters, before any is built.
        The order is read off the meets: a <= b iff a ^ b = a."""
        count = len(self)
        if count > EAGER_TABLE_CAP:
            raise SizeLimitExceeded(f"{self.name} has {count} elements, "
                                    f"above the table cap {EAGER_TABLE_CAP}")
        width = np.array([len(s) for s in self.base.names])
        chars = sum(int(width[c].sum()) for c in self.cols) + count * (self.arity + 1)
        if chars > NAME_CHAR_CAP:
            raise SizeLimitExceeded(f"the element names of {self.name} take {chars} "
                                    f"characters, above the cap {NAME_CHAR_CAP}")
        label = np.array(self.base.names, dtype=object)
        template = "<" + ",".join(["%s"] * self.arity) + ">"
        names = [template % t for t in zip(*(label[c].tolist() for c in self.cols))]
        ids = np.arange(count, dtype=np.int32)
        meet = np.empty((count, count), dtype=np.int32)
        join = np.empty((count, count), dtype=np.int32)
        rows = max(1, _GRID_ENTRIES // count)
        for lo in range(0, count, rows):
            block = slice(lo, lo + rows)
            meet[block] = self.meet(ids[block, None], ids)
            join[block] = self.join(ids[block, None], ids)
        return FiniteLattice(meet == ids[:, None], meet, join, names=names, name=self.name)

    @functools.cached_property
    def max_closure_index(self) -> int:
        """The most step-map rounds the componentwise join of two elements
        takes to become balanced; SizeLimitExceeded above KEY_CAP keys.
        Not every key is the join of a pair, so the recorded index is
        read at the pairs' join keys, rows [lo, hi) with columns [lo, count)
        in blocks of about _MARK_ENTRIES pairs, up to the first block that
        reaches the largest index over all n^arity keys, which bounds it."""
        index, count = self._closed[1], len(self)
        bound, depth, lo = int(index.max()), 0, 0
        while lo < count and depth < bound:
            hi = min(count, lo + max(1, _MARK_ENTRIES // (count - lo)))
            keys = self._key("join", np.s_[lo:hi, None], np.s_[lo:])
            depth = max(depth, int(index.take(keys).max()))
            lo = hi
        return depth


def _balanced(base: FiniteLattice, arity: int, name: str) -> TupleLattice:
    """The tuples over the base whose pairwise meets all coincide: the
    fixed points of the step map, the keys of closure index 0 in the base's
    closure table, which ascend in lexicographic order."""
    keys = np.flatnonzero(_closures(base, arity)[1] == 0).astype(np.int32)
    return TupleLattice(base, _decode(base.n, arity, keys), f"{name}[{base.name or '?'}]")


def m3_of(base: FiniteLattice) -> TupleLattice:
    """The lattice of all balanced triples of the base: meets
    componentwise, join of a pair the closure of its componentwise join."""
    return _balanced(base, 3, "M3")


def m4_of(base: FiniteLattice) -> TupleLattice:
    """The lattice of quadruples whose pairwise meets all coincide."""
    return _balanced(base, 4, "M4")


def spanning_m3(k: TupleLattice) -> list[int]:
    """The five elements <0,0,0>, <1,0,0>, <0,1,0>, <0,0,1>, <1,1,1>;
    verified to be distinct and to form a sublattice isomorphic to M_3
    spanning k's bounds."""
    o, i = k.base.bottom, k.base.top
    ids = [k.bottom] + k.ids(np.array([(i, o, o), (o, i, o), (o, o, i), (i, i, i)]).T).tolist()
    if len(set(ids)) != 5:
        raise VerificationFailed("the five elements are not distinct")
    bot, a, b, c, top = ids
    every = np.arange(len(k))
    if (k.meet(bot, every) != bot).any() or (k.join(top, every) != top).any():
        raise VerificationFailed("<0,0,0> and <1,1,1> are not the bounds")
    for u, v in ((a, b), (a, c), (b, c)):
        if k.meet(u, v) != bot or k.join(u, v) != top:
            raise VerificationFailed(f"the spanning M3 fails at ({u},{v})")
    return ids


def embed_atom(k: TupleLattice) -> list[int]:
    """The embedding x -> <x,0,0,...> of the base into k; returns the image
    ids indexed by base element, verified meet- and join-preserving."""
    x = np.arange(k.base.n)
    image = k.ids([x] + [np.full_like(x, k.base.bottom)] * (k.arity - 1))
    return _check_embedding(k, image)


def embed_diag(k: TupleLattice) -> list[int]:
    """The diagonal embedding x -> <x,x,...,x>."""
    return _check_embedding(k, k.ids([np.arange(k.base.n)] * k.arity))


def _check_embedding(k: TupleLattice, image: np.ndarray) -> list[int]:
    base = k.base
    if np.unique(image).size != base.n:
        raise VerificationFailed("the embedding is not injective")
    for what, op, table in (("meet", k.meet, base.meet_table),
                            ("join", k.join, base.join_table)):
        bad = np.argwhere(op(image[:, None], image[None, :]) != image[table])
        if bad.size:
            raise VerificationFailed(f"the embedding breaks the {what} of {tuple(bad[0])}")
    return image.tolist()


def _check_coordinate_swaps(k: TupleLattice) -> None:
    """VerificationFailed unless k's closure map commutes with swapping
    coordinate 0 and each other coordinate, on all n^arity keys: the
    closure of the swapped tuple is the swapped closure.  The swaps generate
    all coordinate permutations, and the balanced tuples and the
    componentwise meets and joins commute with these; so then does k's
    join, and each permutation is an automorphism of k.  Per swap, a
    transpose of the table against the swapped closures' ids, gathered by
    indexing (take would copy the int32 keys to intp): 5 bytes a key."""
    n, arity = k.base.n, k.arity
    closed = k._closed[0].reshape((n,) * arity)
    for c in range(1, arity):
        axes = list(range(arity))
        axes[0], axes[c] = c, 0
        swap_ids = k.ids([k.cols[a] for a in axes])
        if not np.array_equal(closed.transpose(axes), swap_ids[closed]):
            raise VerificationFailed(
                f"{k.name}: the joins do not commute with swapping coordinates 0 and {c}")


def m3_power_poset(d: FiniteLattice) -> FiniteLattice:
    """The lattice of isotone maps from the join-irreducibles of a
    distributive lattice into M_3, ordered pointwise, in `isotone_maps`'
    order; `pointwise_order` refuses more than ELEMENT_CAP."""
    if not is_distributive(d):
        raise NotDistributive("the base of the power construction must be distributive")
    from .catalog import m_k  # noqa: PLC0415
    ji = join_irreducibles(d)
    poset_leq = d.leq[np.ix_(ji, ji)]
    m3 = m_k(3)
    maps = isotone_maps(poset_leq, m3)
    leq = pointwise_order(m3, maps)
    names = ["[" + ",".join(m3.names[v] for v in mp) + "]" for mp in maps.tolist()]
    return lattice_from_leq(leq, names=names, name=f"M3^J({d.name or '?'})")


def m4_sublattice_in_m3m3() -> tuple[TupleLattice, list[int]]:
    """Four elements of the balanced-triple lattice over M_3 — <1,0,0>,
    <0,a,b>, <0,b,c>, <0,c,a> — with all pairwise meets <0,0,0> and joins
    <1,1,1>, generating a bounded sublattice isomorphic to M_4.

    That takes no isomorphism search once the four are distinct: none is 0,
    else its joins with the other three make those three 1, hence equal;
    dually none is 1; and none lies below another, as x <= y gives
    x = x ^ y = 0.  So
    with 0 and 1 they are six distinct elements, closed under meet and
    join, with the four pairwise incomparable between 0 and 1: M_4."""
    from .catalog import m_k  # noqa: PLC0415
    base = m_k(3)
    k = m3_of(base)
    o, i = base.bottom, base.top
    a, b, c = base.index_of("a"), base.index_of("b"), base.index_of("c")
    named = [(i, o, o), (o, a, b), (o, b, c), (o, c, a)]
    ids = k.ids(np.array(named).T).tolist()
    if len(set(ids)) != 4:
        raise VerificationFailed(f"the four elements are not distinct: ids {ids}")
    bot, top = k.bottom, k.ids((i, i, i))
    for s in range(4):
        for t in range(s + 1, 4):
            if k.meet(ids[s], ids[t]) != bot:
                raise VerificationFailed(f"meet of {named[s]} and {named[t]} is not the bottom")
            if k.join(ids[s], ids[t]) != top:
                raise VerificationFailed(f"join of {named[s]} and {named[t]} is not the top")
    return k, ids
