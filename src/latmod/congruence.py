"""Congruences of finite lattices, their lattice, and verification that
the balanced-triple construction is a congruence-preserving extension."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteLattice, join_irreducibles
from .construct import (EAGER_TABLE_CAP, TupleLattice, _encode, embed_atom, embed_diag,
                        m3_with_tables)
from .errors import ArgumentOutOfRange, SizeLimitExceeded, VerificationFailed

CON_SIZE_CAP = EAGER_TABLE_CAP


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
    mi = np.array([m for m in lat.elements() if len(lat.upper_covers(m)) == 1],
                  dtype=np.intp)
    star = [lat.upper_covers(m)[0] for m in mi]
    lower = [lat.lower_covers(j)[0] for j in ji]
    apart = ~lat.leq[np.ix_(ji, mi)]
    up = apart & lat.leq[np.ix_(ji, star)]
    down = apart & lat.leq[np.ix_(lower, mi)]
    dep = up.astype(np.float32) @ down.T.astype(np.float32) > 0
    np.fill_diagonal(dep, False)
    return dep


def _generators(lat: FiniteLattice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The join-irreducibles ji and the distinct generators con(j_, j)
    along a linear extension of their order: ji[a] has generator gen[a],
    and below[s, t] says that generator s lies strictly below generator t.

    con(j_, j) <= con(k_, k) iff j D* k, with D* the reflexive-transitive
    closure of D (Free Lattices, ch. 2), so the distinct generators are
    the classes of D* meet its transpose.  D is closed by Warshall's
    algorithm before its diagonal is added, so that a pivot no pair
    depends through costs one column test (on a chain D is empty)."""
    ji = np.array(join_irreducibles(lat), dtype=np.intp)
    dep = _dependency(lat, ji)
    for p in range(len(ji)):
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
    return ji, np.argsort(order)[gen], below


def _block_roots(lat: FiniteLattice, ji: np.ndarray, collapsed: np.ndarray) -> np.ndarray:
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
    all rows at once."""
    roots = np.full((len(collapsed), lat.n), lat.bottom, dtype=np.int32)
    for a, j in enumerate(ji):
        grow = lat.leq[j] & ~collapsed[:, a, None]
        roots = np.where(grow, lat.join_table[j][roots], roots)
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


def all_congruences(lat: FiniteLattice) -> ConLattice:
    """The congruence lattice, ordered by refinement; SizeLimitExceeded
    when the lattice or its congruence lattice has more than
    `CON_SIZE_CAP` elements.

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
    rows along a linear extension: step t extends each down-set that holds
    everything below generator t by t.  Each down-set's partition comes
    from the block-root formula (`_block_roots`), and a down-set's index
    is found by the same walk (`_down_set_index`), so the Con L tables
    come from the bits.
    """
    cap = CON_SIZE_CAP
    if lat.n > cap:
        raise SizeLimitExceeded(f"congruence computation capped at {cap} elements")
    ji, gen, below = _generators(lat)
    bits = np.zeros((1, len(below)), dtype=bool)
    children = []
    for t in range(len(below)):
        parents = np.flatnonzero(bits[:, below[:, t]].all(axis=1))
        if len(bits) + parents.size > cap:
            raise SizeLimitExceeded(f"more than {cap} congruences")
        child = np.full(len(bits), -1, dtype=np.int32)
        child[parents] = np.arange(len(bits), len(bits) + parents.size)
        children.append(child)
        grown = bits[parents]
        grown[:, t] = True
        bits = np.concatenate([bits, grown])

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


def _substitution_holds(lat: FiniteLattice, row: np.ndarray) -> bool:
    """Whether the partition with first-occurrence labels `row` respects
    meet and join: in each table, every element's row of labels equals
    that of its block's first element (the tables are symmetric, so rows
    suffice)."""
    lead = np.unique(row, return_index=True)[1][row]
    for table in (lat.meet_table, lat.join_table):
        labels = row[table]
        if not np.array_equal(labels, labels[lead]):
            return False
    return True


def _extensions(k: TupleLattice, ids: np.ndarray) -> np.ndarray:
    """The componentwise extension of each row of base congruence labels
    to the tuple lattice, keyed by the base-n number of a tuple's labels;
    raises VerificationFailed unless each has the substitution property."""
    ext = _first_occurrence(_encode(k.base.n, ids[:, k.cols].swapaxes(0, 1)))
    for row in ext:
        if not _substitution_holds(k.lattice, row):
            raise VerificationFailed(
                "componentwise extension lost the substitution property")
    return ext


def _refinement(ids: np.ndarray) -> np.ndarray:
    """leq[i, j] iff partition row i refines row j, that is iff the meet
    of the two, labelled by the pairs of their labels, has the blocks of i."""
    n = ids.shape[1]
    return np.array([(_first_occurrence(row.astype(np.int64) * n + ids) == row).all(axis=1)
                     for row in ids])


@dataclass(frozen=True)
class CpeReport:
    base_con_count: int
    ext_con_count: int
    extension_injective: bool
    extensions_are_congruences: bool
    every_congruence_is_extension: bool
    order_isomorphism: bool

    @property
    def passed(self) -> bool:
        return (self.extension_injective and self.extensions_are_congruences
                and self.every_congruence_is_extension and self.order_isomorphism)


_EMBEDDINGS = {"atom": embed_atom, "diag": embed_diag}


def verify_cpe(base: FiniteLattice, embedding: str = "atom") -> CpeReport:
    """Check that the balanced-triple lattice over the base is a
    congruence-preserving extension: componentwise extension is a bijection
    Con(base) -> Con(extension) inverse to restriction along the embedding,
    and it preserves the refinement order both ways."""
    if embedding not in _EMBEDDINGS:
        raise ArgumentOutOfRange(
            f"embedding must be 'atom' or 'diag', not {embedding!r}")
    return _check_cpe(*_cpe_pieces(base), embedding)


def _cpe_pieces(base: FiniteLattice) -> tuple[TupleLattice, ConLattice, ConLattice]:
    """M3[base] with its tables, Con(base) and Con(M3[base]): what the
    check needs for either embedding."""
    k = m3_with_tables(base)
    return k, all_congruences(base), all_congruences(k.lattice)


def _check_cpe(k: TupleLattice, con_b: ConLattice, con_k: ConLattice,
               embedding: str) -> CpeReport:
    """verify_cpe over built pieces, so one build serves both embeddings."""
    image = _EMBEDDINGS[embedding](k)
    ext = _extensions(k, con_b.ids)
    keys = [row.tobytes() for row in ext]
    injective = len(set(keys)) == len(keys)
    are_congruences = set(keys) <= {row.tobytes() for row in con_k.ids}
    # every congruence of the extension is the extension of its restriction
    base_id = {row.tobytes(): i for i, row in enumerate(con_b.ids)}
    back = [base_id.get(theta.tobytes()) for theta in _first_occurrence(con_k.ids[:, image])]
    surjective = all(i is not None and keys[i] == phi.tobytes()
                     for i, phi in zip(back, con_k.ids))
    # the order is read off the partitions, not the Con tables
    order_iso = np.array_equal(_refinement(con_b.ids), _refinement(ext))
    return CpeReport(len(con_b), len(con_k), injective, are_congruences,
                     surjective and len(con_b) == len(con_k), order_iso)
