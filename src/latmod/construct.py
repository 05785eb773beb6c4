"""Lattices of balanced triples and quadruples over a base lattice,
their canonical embeddings, and the isotone-map power construction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    FiniteLattice,
    find_isomorphism,
    is_distributive,
    isotone_maps,
    join_irreducibles,
    lattice_from_leq,
)
from .errors import NotDistributive, VerificationFailed
from .rank import _BLOCK_ENTRIES, _step3_columns, _step4_columns, step3, step4

EAGER_TABLE_CAP = 2000


def _encode(n: int, cols) -> np.ndarray:
    """Pack coordinate columns into one int64 key, lexicographic order."""
    key = np.zeros(cols[0].shape, dtype=np.int64)
    for c in cols:
        key = key * n + c
    return key


class TupleLattice:
    """A lattice whose elements are tuples over a base lattice, with
    componentwise meets and closure-iterated joins.

    Element ids follow the lexicographic order of the tuples.  Full meet
    and join tables are materialized up to EAGER_TABLE_CAP elements; above
    that, joins are computed on demand and memoized (`lattice` is then
    unavailable).
    """

    def __init__(self, base: FiniteLattice, tuples: list[tuple],
                 lattice: Optional[FiniteLattice], max_closure_index: int,
                 arity: int, name: str):
        self.base = base
        self.tuples = tuples
        self.index = {t: i for i, t in enumerate(tuples)}
        self.lattice = lattice
        self.max_closure_index = max_closure_index
        self.arity = arity
        self.name = name
        self._join_memo: dict[tuple[int, int], int] = {}

    def __len__(self):
        return len(self.tuples)

    def tuple_name(self, i: int) -> str:
        return "<" + ",".join(self.base.names[c] for c in self.tuples[i]) + ">"

    @property
    def bottom(self) -> int:
        return self.index[(self.base.bottom,) * self.arity]

    @property
    def top(self) -> int:
        return self.index[(self.base.top,) * self.arity]

    def meet(self, i: int, k: int) -> int:
        if self.lattice is not None:
            return self.lattice.meet(i, k)
        m = self.base.meet_table
        return self.index[tuple(int(m[a, b])
                                for a, b in zip(self.tuples[i], self.tuples[k]))]

    def join(self, i: int, k: int) -> int:
        if self.lattice is not None:
            return self.lattice.join(i, k)
        key = (min(i, k), max(i, k))
        got = self._join_memo.get(key)
        if got is None:
            j = self.base.join_table
            t = tuple(int(j[a, b]) for a, b in zip(self.tuples[i], self.tuples[k]))
            t = _closure_tuple(self.base, t)
            got = self.index[t]
            self._join_memo[key] = got
        return got


def _closure_tuple(base: FiniteLattice, t: tuple) -> tuple:
    step = step3 if len(t) == 3 else step4
    cur = t
    while True:
        nxt = tuple(step(base, cur))
        if nxt == cur:
            return cur
        cur = nxt


def _balanced_triples(base: FiniteLattice) -> tuple:
    n = base.n
    x, y, z = (g.ravel().astype(np.int32) for g in
               np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij"))
    m = base.meet_table
    mask = (m[x, y] == m[x, z]) & (m[x, y] == m[y, z])
    return x[mask], y[mask], z[mask]


def _balanced_quadruples(base: FiniteLattice) -> tuple:
    n = base.n
    grids = np.meshgrid(*([np.arange(n)] * 4), indexing="ij")
    cols = [g.ravel().astype(np.int32) for g in grids]
    m = base.meet_table
    ref = m[cols[0], cols[1]]
    mask = np.ones(ref.shape, dtype=bool)
    for i in range(4):
        for k in range(i + 1, 4):
            mask &= m[cols[i], cols[k]] == ref
    return tuple(c[mask] for c in cols)


def _pair_blocks(count: int, block: int):
    """The index pairs a <= b in lexicographic order, in blocks of about
    `block` pairs (a block ends after the row that fills it)."""
    rows, size = [], 0
    for a in range(count):
        rows.append(a)
        size += count - a
        if size >= block or a == count - 1:
            ia = np.repeat(np.array(rows), count - np.array(rows))
            ib = np.concatenate([np.arange(r, count) for r in rows])
            yield ia, ib
            rows, size = [], 0


def _close_joins(base: FiniteLattice, cols, ia, ib, arity: int):
    """Close the componentwise joins of the tuple pairs (ia[i], ib[i]) under
    the step map.  Returns the closed columns in pair order and the largest
    closure index."""
    m, j = base.meet_table, base.join_table
    cur = [j.ravel().take(c[ia] * base.n + c[ib]) for c in cols]
    out = [np.empty(ia.size, dtype=np.int32) for _ in cols]
    pos = np.arange(ia.size)
    k = 0
    while pos.size:
        if arity == 3:
            nxt = _step3_columns(m, j, *cur)
        else:
            nxt = _step4_columns(m, j, cur)
        same = np.ones(pos.shape, dtype=bool)
        for a, b in zip(cur, nxt):
            same &= a == b
        for o, c in zip(out, cur):
            o[pos[same]] = c[same]
        keep = ~same
        pos = pos[keep]
        cur = [c[keep] for c in nxt]
        k += 1
    return out, max(0, k - 1)


def _build(base: FiniteLattice, cols, arity: int, name: str) -> TupleLattice:
    n = base.n
    count = cols[0].size
    tuples = [tuple(int(c[i]) for c in cols) for i in range(count)]

    if count > EAGER_TABLE_CAP:
        # no tables; the closure depth is still reported, in bounded blocks
        depth = max(_close_joins(base, cols, ia, ib, arity)[1]
                    for ia, ib in _pair_blocks(count, _BLOCK_ENTRIES))
        return TupleLattice(base, tuples, None, depth, arity, name)

    names = ["<" + ",".join(base.names[v] for v in t) + ">" for t in tuples]
    # componentwise order
    leq = np.ones((count, count), dtype=bool)
    for c in cols:
        leq &= base.leq[c[:, None], c[None, :]]

    keys = _encode(n, cols)  # ascending: tuples are lexicographic

    def locate(component_cols) -> np.ndarray:
        return np.searchsorted(keys, _encode(n, component_cols)).astype(np.int32)

    # meets and joins are symmetric: compute the pairs a <= b, mirror the rest
    ia, ib = np.triu_indices(count)

    def mirror(half: np.ndarray) -> np.ndarray:
        table = np.empty((count, count), dtype=np.int32)
        table[ia, ib] = half
        table[ib, ia] = half
        return table

    meet = mirror(locate([base.meet_table[c[ia], c[ib]] for c in cols]))
    closed, depth = _close_joins(base, cols, ia, ib, arity)
    lat = FiniteLattice(leq, meet, mirror(locate(closed)), names=names, name=name)
    return TupleLattice(base, tuples, lat, depth, arity, name)


def m3_of(base: FiniteLattice) -> TupleLattice:
    """The lattice of all balanced triples of the base: meets
    componentwise, join of a pair the closure of its componentwise join."""
    cols = _balanced_triples(base)
    return _build(base, list(cols), 3, f"M3[{base.name or '?'}]")


def m4_of(base: FiniteLattice) -> TupleLattice:
    """The lattice of quadruples whose pairwise meets all coincide."""
    cols = _balanced_quadruples(base)
    return _build(base, list(cols), 4, f"M4[{base.name or '?'}]")


def spanning_m3(k: TupleLattice) -> list[int]:
    """The five elements <0,0,0>, <1,0,0>, <0,1,0>, <0,0,1>, <1,1,1>;
    verified to form a sublattice isomorphic to M_3 spanning k's bounds."""
    o, i = k.base.bottom, k.base.top
    ids = [k.index[t] for t in
           [(o, o, o), (i, o, o), (o, i, o), (o, o, i), (i, i, i)]]
    bot, a, b, c, top = ids
    if bot != k.bottom or top != k.top:
        raise VerificationFailed("<0,0,0> and <1,1,1> are not the bounds")
    for u, v in ((a, b), (a, c), (b, c)):
        if k.meet(u, v) != bot or k.join(u, v) != top:
            raise VerificationFailed(f"the spanning M3 fails at ({u},{v})")
    return ids


def embed_atom(k: TupleLattice) -> list[int]:
    """The embedding x -> <x,0,0,...> of the base into k; returns the image
    ids indexed by base element, verified meet- and join-preserving."""
    o = k.base.bottom
    pad = (o,) * (k.arity - 1)
    image = [k.index[(x,) + pad] for x in k.base.elements()]
    _check_embedding(k, image)
    return image


def embed_diag(k: TupleLattice) -> list[int]:
    """The diagonal embedding x -> <x,x,...,x>."""
    image = [k.index[(x,) * k.arity] for x in k.base.elements()]
    _check_embedding(k, image)
    return image


def _check_embedding(k: TupleLattice, image: list[int]):
    base = k.base
    if len(set(image)) != base.n:
        raise VerificationFailed("the embedding is not injective")
    for a in base.elements():
        for b in base.elements():
            if k.meet(image[a], image[b]) != image[base.meet(a, b)]:
                raise VerificationFailed(f"the embedding breaks the meet of ({a},{b})")
            if k.join(image[a], image[b]) != image[base.join(a, b)]:
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
    count = len(maps)
    leq = np.ones((count, count), dtype=bool)
    vals = np.array([mp.values for mp in maps], dtype=np.int32)
    for p in range(len(ji)):
        leq &= m3.leq[vals[:, p][:, None], vals[:, p][None, :]]
    if len(ji) == 0:
        leq = np.ones((1, 1), dtype=bool)
    names = ["[" + ",".join(m3.names[v] for v in mp.values) + "]" for mp in maps]
    return lattice_from_leq(leq, names=names, name=f"M3^J({d.name or '?'})")


def m4_sublattice_in_m3m3() -> tuple[TupleLattice, list[int]]:
    """Four elements of the balanced-triple lattice over M_3 — <1,0,0>,
    <0,a,b>, <0,b,c>, <0,c,a> — with all pairwise meets <0,0,0> and joins
    <1,1,1>, generating a bounded sublattice isomorphic to M_4."""
    from .catalog import m_k  # noqa: PLC0415
    base = m_k(3)
    k = m3_of(base)
    o, i = base.bottom, base.top
    a, b, c = base.index_of("a"), base.index_of("b"), base.index_of("c")
    named = [(i, o, o), (o, a, b), (o, b, c), (o, c, a)]
    ids = [k.index[t] for t in named]
    for s in range(4):
        for t in range(s + 1, 4):
            if k.meet(ids[s], ids[t]) != k.bottom:
                raise VerificationFailed(f"meet of {named[s]} and {named[t]} is not the bottom")
            if k.join(ids[s], ids[t]) != k.top:
                raise VerificationFailed(f"join of {named[s]} and {named[t]} is not the top")
    six = sorted([k.bottom, k.top] + ids)
    sub_leq = k.lattice.leq[np.ix_(six, six)]
    if find_isomorphism(lattice_from_leq(sub_leq.copy()), m_k(4)) is None:
        raise VerificationFailed("the six elements do not form M4")
    return k, ids
