"""Lattices of balanced triples and quadruples over a base lattice,
their canonical embeddings, and the isotone-map power construction."""

from __future__ import annotations

import functools
import itertools
from typing import Optional

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
from .rank import _fixpoints

EAGER_TABLE_CAP = 2000
_GRID_ENTRIES = 1 << 16  # tuples or pairs per numpy block
# pairs per block when join keys are marked: blocks of 2^16 took about
# twice as long on census grids and on M3[Sub(3,3)], blocks of 2^12 longer
_MARK_ENTRIES = 1 << 14


def _encode(n: int, cols) -> np.ndarray:
    """Pack coordinate columns into one key, the tuple read as a base-n
    number, so keys ascend with the lexicographic order; int32 keys below
    2^31 tuples, int64 keys above."""
    dtype = np.int32 if n ** len(cols) < 2 ** 31 else np.int64
    key = np.zeros(cols[0].shape, dtype=dtype)
    for c in cols:
        key = key * n + c
    return key


def _decode(n: int, arity: int, keys: np.ndarray) -> list:
    """The coordinate columns of keys made by _encode."""
    cols = []
    for _ in range(arity):
        keys, c = np.divmod(keys, n)
        cols.append(c)
    return cols[::-1]


class TupleLattice:
    """A lattice whose elements are tuples over a base lattice, with
    componentwise meets and closure-iterated joins.

    Element ids follow the lexicographic order of the tuples, given as one
    column of entries per coordinate.  Nothing is built or closed with the
    lattice: the meets, joins and bounds are those of `lattice`, whose
    tables are built on first access and which is None above
    EAGER_TABLE_CAP elements (decided at construction).  The tables and the
    closure depth share one close of the distinct componentwise joins, made
    on the first access of either.  The `index` dict from tuples to ids is
    built on first access.
    """

    def __init__(self, base: FiniteLattice, cols: list, name: str):
        self.base = base
        self.cols = cols
        self.arity = len(cols)
        self.name = name
        self._tabled = cols[0].size <= EAGER_TABLE_CAP

    @functools.cached_property
    def index(self) -> dict:
        return {t: i for i, t in enumerate(zip(*(c.tolist() for c in self.cols)))}

    def __len__(self):
        return self.cols[0].size

    def tuple_name(self, i: int) -> str:
        return "<" + ",".join(self.base.names[c[i]] for c in self.cols) + ">"

    @functools.cached_property
    def lattice(self) -> Optional[FiniteLattice]:
        """The meet and join tables, built on first access; None above
        EAGER_TABLE_CAP."""
        if not self._tabled:
            return None
        base, cols, count = self.base, self.cols, len(self)
        n = base.n
        label = np.array(base.names, dtype=object)
        template = "<" + ",".join(["%s"] * self.arity) + ">"
        names = [template % t for t in zip(*(label[c].tolist() for c in cols))]
        # A tuple's id by its key.  Every <x, y, x^y> (and <x, y, m, m> with
        # m = x^y) is balanced, so count >= n^2 and the index has at most
        # count^(arity/2) entries.
        where = np.empty(n ** self.arity, dtype=np.int32)
        where[_encode(n, cols)] = np.arange(count, dtype=np.int32)

        leq, meet, join = _tables(base, cols, where)
        # a join is the closure of the componentwise join, and join(a, b) =
        # join(b, a): the keys of the pairs a <= b cover the table
        keys, closed, _ = self._closure
        cl = np.zeros(where.size, dtype=np.int32)  # key -> id of its closure
        cl[keys] = where.take(closed)
        rows = max(1, _GRID_ENTRIES // count)
        for lo in range(0, count, rows):
            join[lo:lo + rows] = cl.take(join[lo:lo + rows])
        return FiniteLattice(leq, meet, join, names=names, name=self.name)

    @functools.cached_property
    def _closure(self) -> tuple:
        """The distinct componentwise joins of the pairs a <= b as ascending
        keys, the key of each one's closure, and the largest closure index;
        the tables and the depth share it.  The keys are marked in an
        n^arity mask (_join_keys) and closed _GRID_ENTRIES at a time, so
        this holds one byte per key of the mask and at most 16 per marked
        key; SizeLimitExceeded before the mask is allocated when n^arity
        reaches 2^31."""
        n, arity = self.base.n, self.arity
        if n ** arity >= 2 ** 31:
            raise SizeLimitExceeded(
                f"{self.name}: the closure depth needs a mask of {n}^{arity} "
                f"join keys, at least 2^31")
        keys = np.flatnonzero(_join_keys(self.base, self.cols)).astype(np.int32)
        closed = np.empty_like(keys)
        depth = 0
        for lo in range(0, keys.size, _GRID_ENTRIES):
            part = slice(lo, lo + _GRID_ENTRIES)
            cols, d = _close(self.base, _decode(n, arity, keys[part]))
            closed[part] = _encode(n, cols)
            depth = max(depth, d)
        return keys, closed, depth

    @property
    def max_closure_index(self) -> int:
        """The most step-map rounds the componentwise join of two elements
        takes to become balanced; SizeLimitExceeded when n^arity reaches
        2^31."""
        return self._closure[2]


def _balanced_tuples(base: FiniteLattice, arity: int) -> list:
    """The tuples over the base whose pairwise meets all coincide, as
    columns in lexicographic order.

    The grid of all n^arity tuples is filtered a block of first
    coordinates at a time, as an open mesh: the meets broadcast rows of
    the meet table, and a block holds about _GRID_ENTRIES tuples but at
    least one first coordinate, so the working set is
    max(_GRID_ENTRIES, n^(arity-1)) entries."""
    n = base.n
    m = base.meet_table
    rows = max(1, _GRID_ENTRIES // n ** (arity - 1))
    others = [np.arange(n, dtype=np.int32)] * (arity - 1)
    parts = [[] for _ in range(arity)]
    for lo in range(0, n, rows):
        first = np.arange(lo, min(lo + rows, n), dtype=np.int32)
        axes = np.ix_(first, *others)
        ref = m[axes[0], axes[1]]
        mask = np.ones((first.size,) + (n,) * (arity - 1), dtype=bool)
        for a, b in itertools.combinations(range(arity), 2):
            if (a, b) != (0, 1):
                mask &= m[axes[a], axes[b]] == ref
        hits = np.nonzero(mask)  # row-major, hence lexicographic
        parts[0].append(first[hits[0]])
        for part, h in zip(parts[1:], hits[1:]):
            part.append(h.astype(np.int32))
    return [np.concatenate(p) for p in parts]


def _close(base: FiniteLattice, cols: list):
    """Close tuples, given as columns, under the step map.  Returns the
    closed columns in input order and the largest closure index.

    The tables and the depth pass each distinct componentwise join once,
    not every pair of elements (`TupleLattice._closure`).  The distinct
    joins number at most n^arity, far fewer than the count(count+1)/2
    pairs.  They are all n^3 keys on the 96 census grids (2,197-3,375
    against 63k-151k pairs), on Fano (4,096 against 594,595) and on M7
    (729 against 76,245), but need not be: 1,232 of 6^4 = 1,296 for
    M4[M4], and 1,325 of 11^3 = 1,331 for M3 of an 11-element lattice
    whose three join-irreducibles x, y, z with x^y !<= z, x^z !<= y and
    y^z !<= x make <x, y, z> the join of no two balanced triples."""
    out = [np.empty(cols[0].size, dtype=np.int32) for _ in cols]
    depth = 0
    # `cols` is not held here: the loop drops the input after round 0
    rounds = _fixpoints(base.meet_table, base.join_table, cols)
    del cols
    for depth, (done, fixed, cur) in enumerate(rounds):
        for o, c in zip(out, cur):
            o[done] = c.compress(fixed)
    return out, depth


def _tables(base: FiniteLattice, cols: list, where: np.ndarray):
    """The componentwise order, the meet table and the componentwise-join
    keys of all count^2 pairs.  Broadcast a block of rows at a time: whole
    count^2 temporaries left holes in the heap that raised the peak RSS of
    later work.  The order is read off the meets: a <= b iff a ^ b = a."""
    n, count = base.n, cols[0].size
    mf, jf = base.meet_table.ravel(), base.join_table.ravel()
    leq = np.empty((count, count), dtype=bool)
    meet = np.empty((count, count), dtype=np.int32)
    join = np.empty((count, count), dtype=np.int32)
    rows = max(1, _GRID_ENTRIES // count)
    for lo in range(0, count, rows):
        block = slice(lo, lo + rows)
        mkey = jkey = np.zeros(leq[block].shape, dtype=np.int32)
        for c in cols:
            pair = c[block, None] * n + c[None, :]
            mkey = mkey * n + mf.take(pair)
            jkey = jkey * n + jf.take(pair)
        meet[block] = where.take(mkey)
        leq[block] = meet[block] == np.arange(lo, lo + len(mkey))[:, None]
        join[block] = jkey
    return leq, meet, join


def _join_keys(base: FiniteLattice, cols: list) -> np.ndarray:
    """A mask over all n^arity keys of those that are the componentwise
    join of a pair a <= b.  Rows [lo, hi) pair with columns [lo, count), a
    block of about _MARK_ENTRIES pairs at a time, so the working set is
    three int32 blocks besides the mask whatever the count.  The keys must
    fit in int32."""
    n, count = base.n, cols[0].size
    jf = base.join_table.ravel()
    seen = np.zeros(n ** len(cols), dtype=bool)
    lo = 0
    while lo < count:
        hi = min(count, lo + max(1, _MARK_ENTRIES // (count - lo)))
        key = np.zeros((hi - lo, count - lo), dtype=np.int32)
        for c in cols:
            key *= n
            key += jf.take(c[lo:hi, None] * n + c[None, lo:])
        seen[key] = True
        lo = hi
    return seen


def m3_of(base: FiniteLattice) -> TupleLattice:
    """The lattice of all balanced triples of the base: meets
    componentwise, join of a pair the closure of its componentwise join."""
    return TupleLattice(base, _balanced_tuples(base, 3), f"M3[{base.name or '?'}]")


def m3_with_tables(base: FiniteLattice) -> TupleLattice:
    """m3_of(base) with its meet and join tables; SizeLimitExceeded when
    M3[base] has more than EAGER_TABLE_CAP elements.  Every <x, y, x^y> is
    balanced, so |M3[base]| >= n^2, and a base with n^2 above the cap
    fails before anything is built."""
    label = f"M3[{base.name or '?'}]"
    if base.n ** 2 > EAGER_TABLE_CAP:
        raise SizeLimitExceeded(f"{label} has at least {base.n ** 2} elements, "
                                f"above the table cap {EAGER_TABLE_CAP}")
    k = m3_of(base)
    require_tables(k)
    return k


def require_tables(k: TupleLattice) -> FiniteLattice:
    """k's meet and join tables; SizeLimitExceeded when k has more than
    EAGER_TABLE_CAP elements."""
    if k.lattice is None:
        raise SizeLimitExceeded(f"{k.name} has {len(k)} elements, "
                                f"above the table cap {EAGER_TABLE_CAP}")
    return k.lattice


def m4_of(base: FiniteLattice) -> TupleLattice:
    """The lattice of quadruples whose pairwise meets all coincide."""
    return TupleLattice(base, _balanced_tuples(base, 4), f"M4[{base.name or '?'}]")


def spanning_m3(k: TupleLattice) -> list[int]:
    """The five elements <0,0,0>, <1,0,0>, <0,1,0>, <0,0,1>, <1,1,1>;
    verified to be distinct and to form a sublattice isomorphic to M_3
    spanning k's bounds."""
    lat = require_tables(k)
    o, i = k.base.bottom, k.base.top
    ids = [k.index[t] for t in
           [(o, o, o), (i, o, o), (o, i, o), (o, o, i), (i, i, i)]]
    if len(set(ids)) != 5:
        raise VerificationFailed("the five elements are not distinct")
    bot, a, b, c, top = ids
    if bot != lat.bottom or top != lat.top:
        raise VerificationFailed("<0,0,0> and <1,1,1> are not the bounds")
    for u, v in ((a, b), (a, c), (b, c)):
        if lat.meet(u, v) != bot or lat.join(u, v) != top:
            raise VerificationFailed(f"the spanning M3 fails at ({u},{v})")
    return ids


def embed_atom(k: TupleLattice) -> list[int]:
    """The embedding x -> <x,0,0,...> of the base into k; returns the image
    ids indexed by base element, verified meet- and join-preserving."""
    lat = require_tables(k)
    o = k.base.bottom
    pad = (o,) * (k.arity - 1)
    image = [k.index[(x,) + pad] for x in k.base.elements()]
    _check_embedding(k.base, lat, image)
    return image


def embed_diag(k: TupleLattice) -> list[int]:
    """The diagonal embedding x -> <x,x,...,x>."""
    lat = require_tables(k)
    image = [k.index[(x,) * k.arity] for x in k.base.elements()]
    _check_embedding(k.base, lat, image)
    return image


def _check_embedding(base: FiniteLattice, lat: FiniteLattice, image: list[int]):
    if len(set(image)) != base.n:
        raise VerificationFailed("the embedding is not injective")
    for a in base.elements():
        for b in base.elements():
            if lat.meet(image[a], image[b]) != image[base.meet(a, b)]:
                raise VerificationFailed(f"the embedding breaks the meet of ({a},{b})")
            if lat.join(image[a], image[b]) != image[base.join(a, b)]:
                raise VerificationFailed(f"the embedding breaks the join of ({a},{b})")


def m3_power_poset(d: FiniteLattice) -> FiniteLattice:
    """The lattice of isotone maps from the join-irreducibles of a
    distributive lattice into M_3, ordered pointwise."""
    if not is_distributive(d):
        raise NotDistributive("the base of the power construction must be distributive")
    from .catalog import m_k  # noqa: PLC0415
    ji = join_irreducibles(d)
    poset_leq = d.leq[np.ix_(ji, ji)]
    m3 = m_k(3)
    maps = isotone_maps(poset_leq, m3)
    leq = pointwise_order(m3, np.array(maps, dtype=np.intp))
    names = ["[" + ",".join(m3.names[v] for v in mp) + "]" for mp in maps]
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
    lat = k.lattice
    o, i = base.bottom, base.top
    a, b, c = base.index_of("a"), base.index_of("b"), base.index_of("c")
    named = [(i, o, o), (o, a, b), (o, b, c), (o, c, a)]
    ids = [k.index[t] for t in named]
    if len(set(ids)) != 4:
        raise VerificationFailed(f"the four elements are not distinct: ids {ids}")
    for s in range(4):
        for t in range(s + 1, 4):
            if lat.meet(ids[s], ids[t]) != lat.bottom:
                raise VerificationFailed(f"meet of {named[s]} and {named[t]} is not the bottom")
            if lat.join(ids[s], ids[t]) != lat.top:
                raise VerificationFailed(f"join of {named[s]} and {named[t]} is not the top")
    return k, ids
