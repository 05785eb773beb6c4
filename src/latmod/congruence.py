"""Congruences of finite lattices, their lattice, and verification that
the balanced-tuple constructions are congruence-preserving extensions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import FiniteLattice, _CoverIndex, join_irreducibles, meet_irreducibles
from .construct import (
    _GRID_ENTRIES,
    TupleLattice,
    _check_coordinate_swaps,
    embed_atom,
    embed_diag,
    m3_of,
)
from .errors import ArgumentOutOfRange, SizeLimitExceeded

CON_SIZE_CAP = 2000


def _dependency(lat: FiniteLattice, ji: np.ndarray) -> np.ndarray:
    """The dependency relation D on the join-irreducibles ji, without its
    diagonal: dep[a, b] iff ji[a] D ji[b] (R. Freese, J. Ježek, J. B.
    Nation, Free Lattices, AMS 1995, ch. 2).

    For j != k, j D k iff some x has j <= k v x and j !<= k_ v x.  Enlarge
    k_ v x to a maximal m with j !<= m: every element strictly above m is
    above j, so m is meet-irreducible and its upper cover m* is above j;
    and k !<= m, else j <= k v x <= m.  Conversely, if k_ <= m and
    k !<= m then k v m > m, so k v m >= m*.  Hence j D k iff some
    meet-irreducible m has j !<= m, j <= m* and k !<= m, k_ <= m: one
    boolean product of two |J| x |M| matrices, counted by a float32 matmul
    (exact below 2^24), so the working set is O(|J| (|J| + |M|))."""
    mi = np.array(meet_irreducibles(lat), dtype=np.intp)
    star = [lat.upper_covers(m)[0] for m in mi]
    lower = [lat.lower_covers(j)[0] for j in ji]
    apart = ~lat.leq[np.ix_(ji, mi)]
    up = apart & lat.leq[np.ix_(ji, star)]
    down = apart & lat.leq[np.ix_(lower, mi)]
    dep = up.astype(np.float32) @ down.T.astype(np.float32) > 0
    np.fill_diagonal(dep, False)
    return dep


def _generators(lat: FiniteLattice | TupleLattice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The join-irreducibles ji, and the distinct generators con(j_, j) as
    `_classes` of D: con(j_, j) <= con(k_, k) iff j D* k (Free Lattices, ch. 2).
    For M3[L] or M4[L], J is the coordinate copies of J(L) (`_copy_dependency`)."""
    if isinstance(lat, TupleLattice):
        ji = np.array(join_irreducibles(lat.base), dtype=np.intp)
        lower = np.array([lat.base.lower_covers(j)[0] for j in ji], dtype=np.intp)
        return (_copies(lat, ji), *_classes(_copy_dependency(lat, ji, lower)))
    ji = np.array(join_irreducibles(lat), dtype=np.intp)
    return (ji, *_classes(_dependency(lat, ji)))


def generator_order(lat: FiniteLattice | TupleLattice) -> tuple[int, list]:
    """|J(Con L)|, the number of distinct generators con(j_, j), and the
    cover pairs (lower, upper) of their order, numbered as in `_generators`:
    they fix Con L (Birkhoff), and are read at any size."""
    below = _generators(lat)[2]
    return len(below), _CoverIndex(below | np.eye(len(below), dtype=bool)).pairs


def _classes(dep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The classes of D* meet its transpose, numbered along a linear
    extension: a has class gen[a], and below[s, t] says that class s lies
    strictly below class t.  D, given without its diagonal, is closed in
    place by Warshall's algorithm, so that a pivot no pair depends through
    costs one column test (on a chain D is empty)."""
    for p in range(len(dep)):
        via = np.flatnonzero(dep[:, p])
        if via.size:
            dep[via] |= dep[p]
    np.fill_diagonal(dep, True)
    same = dep & dep.T
    first = np.flatnonzero(~np.tril(same, -1).any(axis=1))  # each class's least j
    gen = np.nonzero(same[:, first])[1]
    below = dep[np.ix_(first, first)]
    order = np.argsort(below.sum(axis=0), kind="stable")
    below = below[np.ix_(order, order)]
    np.fill_diagonal(below, False)
    return np.argsort(order)[gen], below


def _block_roots(lat: FiniteLattice | TupleLattice, ji: np.ndarray,
                 collapsed: np.ndarray) -> np.ndarray:
    """Row i is the congruence theta that collapses the pair (j_, j) of
    exactly the ji[a] with collapsed[i, a], as root labels: roots[i, e] is
    the least element of e's block.

    For a <= b, con(a, b) is the join of the con(j_, j) with j <= b and
    j !<= a: con(a, b) collapses each such pair, since j = j ^ b is
    congruent to j ^ a <= j_, and each cover on a chain from a to b is
    perspective to one such <j_, j> (see all_congruences).  So a theta b
    iff theta collapses every j <= b with j !<= a.  Let r be the join of
    the j <= a that theta does not collapse.  Then r <= a and r theta a;
    and for c theta a also a ^ c theta a, so r <= a ^ c <= c.  So r is the
    least element of a's block: one join pass per join-irreducible over
    all rows at once.  The joins of each j with every element come from
    one call of the lattice's join on id arrays; j's up-set is the x with
    j v x = x."""
    every = np.arange(len(lat))
    joins = lat.join(ji[:, None], every)
    roots = np.full((len(collapsed), len(lat)), lat.bottom, dtype=np.int32)
    for a, (row, up) in enumerate(zip(joins, joins == every)):
        roots = np.where(up & ~collapsed[:, a, None], row[roots], roots)
    return roots


def _first_occurrence(labels: np.ndarray) -> np.ndarray:
    """Each row of integer labels renumbered so that its blocks (the
    entries with equal labels) count 0, 1, ... in order of first
    occurrence.  A stable sort of each row puts every block's first entry
    at the start of its run; numbering those first entries in ascending
    order numbers the blocks."""
    count, n = labels.shape
    order = np.argsort(labels, axis=1, kind="stable")
    ranked = np.take_along_axis(labels, order, axis=1)
    start = np.ones((count, n), dtype=bool)
    start[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    run = np.maximum.accumulate(np.where(start, np.arange(n), 0), axis=1)
    first = np.empty_like(order)
    np.put_along_axis(first, order, np.take_along_axis(order, run, axis=1), axis=1)
    rank = np.cumsum(first == np.arange(n), axis=1, dtype=np.int32) - 1
    return np.take_along_axis(rank, first, axis=1)


@dataclass(frozen=True, eq=False)
class ConLattice:
    """Con L: row i of `ids` is the congruence with id i in `lattice`, as
    block labels numbered by first occurrence."""

    ids: np.ndarray
    lattice: FiniteLattice

    def __len__(self):
        return len(self.ids)


def all_congruences(lat: FiniteLattice | TupleLattice) -> ConLattice:
    """The congruence lattice, ordered by refinement, of a FiniteLattice
    or of M3[L] or M4[L] through its operations; SizeLimitExceeded when the
    lattice or its congruence lattice has more than `CON_SIZE_CAP` elements.

    Every congruence of a finite lattice is the join of the principal
    congruences of the cover pairs it collapses, and one generator per
    join-irreducible j suffices: con(j_, j), with j_ the unique lower cover
    of j.  Take a cover a < b and let j be minimal in {x <= b : x !<= a}.
    Every x < j is below b and, by minimality, below a, so x <= j meet a < j;
    hence j is join-irreducible with j_ = j meet a.  And j join a = b, since
    a < j join a <= b and a is covered by b.  So <j_, j> is perspective to
    <a, b>, and con(j_, j) = con(a, b) (R. Freese, "Computing congruences
    efficiently", Algebra Universalis 59, 2008).  Each <j_, j> is itself a
    cover, so these generators are exactly the distinct cover-pair
    congruences, which are the join-irreducibles of the distributive
    lattice Con L.  By Birkhoff's representation, theta -> {generators
    below theta} is then an isomorphism from Con L onto the down-sets of
    the generators, with meet = intersection and join = union.

    The generators are ordered by the closure D* of the dependency
    relation on J(L) (`_generators`), and the down-sets enumerated as bit
    rows (`_down_sets`).  Each down-set's partition comes from the
    block-root formula (`_block_roots`), and a down-set's index is found by
    the same walk (`_down_set_index`), so the Con L tables come from the
    bits.
    """
    if len(lat) > CON_SIZE_CAP:
        raise SizeLimitExceeded(f"congruence computation capped at {CON_SIZE_CAP} elements")
    ji, gen, below = _generators(lat)
    bits, children = _down_sets(below)
    ids = _first_occurrence(_block_roots(lat, ji, bits[:, gen]))
    counts = ids.max(axis=1) + 1
    perm = np.lexsort(np.vstack([ids.T[::-1], counts]))  # by block count, then labels
    rank = np.empty(len(perm), dtype=np.int32)
    rank[perm] = np.arange(len(perm))
    meet = rank[_down_set_index(children, bits, np.logical_and)][np.ix_(perm, perm)]
    join = rank[_down_set_index(children, bits, np.logical_or)][np.ix_(perm, perm)]
    names = [f"con{i}/{c}b" for i, c in enumerate(counts[perm].tolist())]
    leq = meet == np.arange(len(perm))[:, None]
    return ConLattice(ids[perm],
                      FiniteLattice(leq, meet, join, names=names,
                                    name=f"Con({lat.name or '?'})"))


def _down_sets(below: np.ndarray) -> tuple[np.ndarray, list]:
    """The down-sets of the strict order `below` as bit rows, step t adding
    t to each down-set that holds everything below t, and per step the
    index of each down-set's child through t (-1 for none);
    SizeLimitExceeded past CON_SIZE_CAP down-sets."""
    bits = np.zeros((1, len(below)), dtype=bool)
    children = []
    for t in range(len(below)):
        parents = np.flatnonzero(bits[:, below[:, t]].all(axis=1))
        if len(bits) + parents.size > CON_SIZE_CAP:
            raise SizeLimitExceeded(f"more than {CON_SIZE_CAP} congruences")
        child = np.full(len(bits), -1, dtype=np.int32)
        child[parents] = np.arange(len(bits), len(bits) + parents.size)
        children.append(child)
        grown = bits[parents]
        grown[:, t] = True
        bits = np.concatenate([bits, grown])
    return bits, children


def _con_count(below: np.ndarray) -> Optional[int]:
    """The number of down-sets of `below`, None past CON_SIZE_CAP."""
    try:
        return len(_down_sets(below)[0])
    except SizeLimitExceeded:
        return None


def _down_set_index(children, bits, op) -> np.ndarray:
    """The enumeration index of op(bits[a], bits[b]) for every pair (a, b),
    where op is intersection or union and so gives a down-set again.
    Starting from the empty set, step t moves to the child through
    generator t where the result holds t: the result's part among the
    first t generators is a down-set, so that child exists."""
    count = len(bits)
    idx = np.zeros((count, count), dtype=np.int32)
    for t, child in enumerate(children):
        col = bits[:, t]
        idx = np.where(op(col[:, None], col[None, :]), child[idx], idx)
    return idx


def _copies(k: TupleLattice, values: np.ndarray) -> np.ndarray:
    """The ids of the tuples with values[a] in coordinate c and the bottom
    elsewhere, at index c * len(values) + a."""
    cols = np.where(np.eye(k.arity, dtype=bool)[:, :, None], values, k.base.bottom)
    return k.ids(cols.reshape(k.arity, -1))


def _copy_dependency(k: TupleLattice, ji: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """D without its diagonal on J(k) = `_copies(k, ji)`, the coordinate
    copies of the base's join-irreducibles ji with lower covers `lower`.
    k's order is componentwise; <a,b,c> = <a,0,0> v <0,b,0> v <0,0,c>, and
    below <j,0,0> lie the <x,0,0>, x <= j: so J(k) is one copy of J(base)
    per coordinate.  j D k iff j != k and some x has j <= k v x and
    j !<= k_ v x (Free Lattices, ch. 2), k v x read off `k.join` for all
    x, about _GRID_ENTRIES joins at a time.  A copy of ji[i] in coordinate
    c is read in c only, so per k and c only the distinct pairs (u, d) =
    ((k v x)_c, (k_ v x)_c) matter, at most n^2 of them: they are marked
    in an n x n grid, and the copy depends on k iff some marked pair has
    ji[i] <= u and ji[i] !<= d.  A float32 product of ji's up-sets with
    the grid counts the marked u above ji[i] per d (exact below 2^24).

    Only the copies k in coordinate 0 are joined.  Permuting coordinates is
    an automorphism of k that maps copies to copies, and D is defined by
    the order alone, so the swap of coordinates 0 and c maps the column
    block of the copies in coordinate 0 onto that of coordinate c, with the
    row blocks 0 and c swapped.  That symmetry is checked first
    (`_check_coordinate_swaps`, VerificationFailed), not assumed: a join
    that breaks it could hide in the blocks that are not joined."""
    _check_coordinate_swaps(k)
    n, nj = k.base.n, len(ji)
    jk, low = _copies(k, ji)[:nj], _copies(k, lower)[:nj]
    every, rows = np.arange(len(k)), max(1, _GRID_ENTRIES // len(k))
    above = k.base.leq[ji]
    above32 = above.astype(np.float32)
    first = np.empty((k.arity, nj, nj), dtype=bool)  # [row block, row, column]
    for lo in range(0, nj, rows):
        part = slice(lo, lo + rows)
        up, down = k.join(jk[part, None], every), k.join(low[part, None], every)
        for c, col in enumerate(k.cols):
            marked = np.zeros((n, len(up), n), dtype=np.float32)  # [u, copy, d]
            marked[col[up], np.arange(len(up))[:, None], col[down]] = 1
            reach = (above32 @ marked.reshape(n, -1)).reshape(nj, len(up), n)
            first[c, :, part] = ((reach > 0) & ~above[:, None]).any(axis=2)
    dep = np.empty((k.arity * nj, k.arity * nj), dtype=bool)
    for c in range(k.arity):
        swap = list(range(k.arity))
        swap[0], swap[c] = c, 0
        dep[:, c * nj:(c + 1) * nj] = first[swap].reshape(k.arity * nj, nj)
    np.fill_diagonal(dep, False)
    return dep


@dataclass(frozen=True)
class CpeReport:
    """|Con| of the base and of K = M3[base] or M4[base], None past
    CON_SIZE_CAP, and the clauses of the check, which read no counts.  The
    paper proves that M3[L] is a CPE of L; for M4[L] this is only checked."""

    base_con_count: Optional[int]
    ext_con_count: Optional[int]
    images_principal: bool
    bijective: bool
    order_preserved: bool
    order_reflected: bool

    @property
    def passed(self) -> bool:
        return (self.images_principal and self.bijective
                and self.order_preserved and self.order_reflected)


_EMBEDDINGS = {"atom": embed_atom, "diag": embed_diag}


def verify_cpe(base: FiniteLattice, embedding: str = "atom",
               k: Optional[TupleLattice] = None) -> CpeReport:
    """Check that K = k, M3[base] or M4[base] (M3[base] when k is None), is
    a congruence-preserving extension of the base along the verified
    embedding iota, at K's arity: the paper proves it for M3[L], and for
    M4[L] this only checks it.  It compares the generator posets J(Con
    base) and J(Con K), which fix both distributive congruence lattices:
    no tables of K, no Con K.  ext(con(j_, j)) = con_K(iota j_, iota j)
    joins the con(j'_, j') with j' <= iota j, j' !<= iota j_
    (`_block_roots`).  Each such down-set of classes must have a greatest
    one, and the induced map J(Con base) -> J(Con K) must be a bijection
    that preserves and reflects the order.  Then ext, which preserves
    joins, is an isomorphism; restriction r has theta <= r(ext theta) and
    ext(r psi) <= psi, so r inverts ext.  |Con| is counted from down-sets
    up to CON_SIZE_CAP."""
    if embedding not in _EMBEDDINGS:
        raise ArgumentOutOfRange(
            f"embedding must be 'atom' or 'diag', not {embedding!r}")
    if k is None:
        k = m3_of(base)
    elif k.base is not base:
        raise ArgumentOutOfRange(f"{k.name} is not over {base.name or 'the base'}")
    image = np.array(_EMBEDDINGS[embedding](k))
    ji, gen_b, below_b = _generators(base)
    jk, gen_k, below_k = _generators(k)
    up, down = image[ji], image[[base.lower_covers(j)[0] for j in ji]]
    # hit[b, a]: jk[b] lies below iota ji[a] and not below iota of its lower cover
    hit = (k.join(jk[:, None], up) == up) & (k.join(jk[:, None], down) != down)
    classes = hit.T.astype(np.int32) @ (gen_k[:, None] == np.arange(len(below_k)))
    order_k = below_k | np.eye(len(below_k), dtype=bool)
    greatest = (classes > 0) & (classes @ ~order_k == 0)
    top = greatest @ np.arange(len(below_k))  # at most one class is greatest
    le_base = below_b[np.ix_(gen_b, gen_b)] | (gen_b[:, None] == gen_b)
    le_image = order_k[np.ix_(top, top)]
    phi = top[np.unique(gen_b, return_index=True)[1]]
    return CpeReport(_con_count(below_b), _con_count(below_k),
                     bool(greatest.any(axis=1).all()),
                     np.array_equal(np.sort(phi), np.arange(len(below_k))),
                     bool((le_image | ~le_base).all()), bool((le_base | ~le_image).all()))
