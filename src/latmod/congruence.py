"""Congruences of finite lattices, their lattice, and verification that
the balanced-triple construction is a congruence-preserving extension."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteLattice, join_irreducibles
from .construct import EAGER_TABLE_CAP, TupleLattice, embed_atom, embed_diag, m3_with_tables
from .errors import ArgumentOutOfRange, SizeLimitExceeded, VerificationFailed

CON_SIZE_CAP = EAGER_TABLE_CAP
_PROPAGATION_ENTRIES = 1 << 12


@dataclass(frozen=True)
class Congruence:
    """A lattice congruence as a partition: ids[e] is the block of e,
    with blocks numbered by first occurrence."""

    ids: tuple

    @staticmethod
    def from_ids(raw) -> "Congruence":
        """Normalize any hashable block labels to first-occurrence numbering."""
        remap: dict = {}
        out = []
        for v in raw:
            if v not in remap:
                remap[v] = len(remap)
            out.append(remap[v])
        return Congruence(tuple(out))

    def same(self, a: int, b: int) -> bool:
        return self.ids[a] == self.ids[b]

    @property
    def block_count(self) -> int:
        return max(self.ids) + 1

    def is_identity(self) -> bool:
        return self.block_count == len(self.ids)

    def is_all(self) -> bool:
        return self.block_count == 1

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for e, b in enumerate(self.ids):
            out[b].append(e)
        return out

    def refines(self, other: "Congruence") -> bool:
        seen = {}
        for mine, theirs in zip(self.ids, other.ids):
            if seen.setdefault(mine, theirs) != theirs:
                return False
        return True


def has_substitution_property(lat: FiniteLattice, part: Congruence) -> bool:
    """Exhaustive check that the partition respects meet and join."""
    ids = np.array(part.ids)
    im = ids[lat.meet_table]
    ij = ids[lat.join_table]
    for block in part.blocks():
        x0 = block[0]
        for x in block[1:]:
            if not (np.array_equal(im[x], im[x0]) and np.array_equal(ij[x], ij[x0])):
                return False
    return True


def _hook(lab: np.ndarray, ru: np.ndarray, rv: np.ndarray) -> np.ndarray:
    """Hook each pair of roots (ru[i], rv[i]) of the pointer forest `lab`
    onto the smaller of the two with np.minimum.at, then pointer-jump until
    every label is a root.  Pointers only decrease, so a block's root is
    its least element."""
    low = np.minimum(ru, rv)
    np.minimum.at(lab, ru, low)
    np.minimum.at(lab, rv, low)
    jumped = lab[lab]
    while not np.array_equal(jumped, lab):
        lab, jumped = jumped, jumped[jumped]
    return lab


def _principal_roots(lat: FiniteLattice, lo, hi) -> np.ndarray:
    """Row r is the least congruence collapsing lo[r] and hi[r], as root
    labels: lab[e] is the least element of e's block.

    Label propagation over the meet/join tables, all rows at once as one
    flat forest with row r at offset r*n.  A round hooks together the
    pairs still apart: at first the given pairs; later also, for both
    tables T, the row T[e, :] with the row T[lab[e], :] for every e whose
    root changed in the round before.  One hook can leave pairs apart
    (a root hooked onto two others takes the smaller), so those are
    kept for the next round.  When no pair is left apart, every e has
    been collapsed row by row with its final root r, so x and y in one
    block have T[x, c], T[r, c] and T[y, c] in one block: the partition
    has the substitution property.  A round gathers n entries per changed
    element, so rows are taken about _PROPAGATION_ENTRIES / n^2 at a
    time.
    """
    n = lat.n
    lo, hi = np.asarray(lo, dtype=np.int32), np.asarray(hi, dtype=np.int32)
    step = max(1, _PROPAGATION_ENTRIES // (n * n))
    if lo.size > step:
        return np.concatenate([_principal_roots(lat, lo[i:i + step], hi[i:i + step])
                               for i in range(0, lo.size, step)])
    tables = (lat.meet_table, lat.join_table)
    # int32 like the tables: a batch holds fewer than 2^31 elements
    off = np.arange(lo.size, dtype=np.int32) * n
    lab = np.arange(lo.size * n, dtype=np.int32)
    u, v = lo + off, hi + off
    while True:
        ru, rv = lab[u], lab[v]
        apart = ru != rv
        if not apart.any():
            return lab.reshape(-1, n) - off[:, None]
        u, v = u[apart], v[apart]
        before = lab.copy()
        lab = _hook(lab, ru[apart], rv[apart])
        changed = np.flatnonzero(lab != before).astype(np.int32)
        shift = (changed - changed % n)[:, None]
        u = np.concatenate([u] + [(t[changed % n] + shift).ravel() for t in tables])
        v = np.concatenate([v] + [(t[lab[changed] - shift[:, 0]] + shift).ravel()
                                  for t in tables])


def _join_roots(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The join of each partition in `rows` with the partition g, all given
    as root labels.  The join of two congruences is the join of their
    equivalence relations, so no table is read: the rows are hooked
    together as one flat forest, row r at offset r*n, along the edges
    (e, g[e])."""
    b, n = rows.shape
    off = (np.arange(b, dtype=np.intp) * n)[:, None]
    lab = (rows + off).ravel()
    u = (np.arange(n) + off).ravel()
    v = (g + off).ravel()
    while True:
        ru, rv = lab[u], lab[v]
        if np.array_equal(ru, rv):
            return lab.reshape(b, n) - off
        lab = _hook(lab, ru, rv)


def _congruences(roots: np.ndarray) -> list[Congruence]:
    """Rows of root labels as Congruences.  A block's root is its first
    element, so numbering the roots in ascending order numbers the blocks
    by first occurrence."""
    rank = np.cumsum(roots == np.arange(roots.shape[1]), axis=1) - 1
    return [Congruence(tuple(r))
            for r in np.take_along_axis(rank, roots, axis=1).tolist()]


def _roots(c: Congruence) -> np.ndarray:
    ids = np.asarray(c.ids)
    return np.unique(ids, return_index=True)[1][ids]


def principal_congruence(lat: FiniteLattice, a: int, b: int) -> Congruence:
    """Least congruence identifying a and b."""
    return _congruences(_principal_roots(lat, [a], [b]))[0]


def join_congruences(a: Congruence, b: Congruence) -> Congruence:
    """Least equivalence containing both; for congruences of a common
    lattice this is again a congruence (substitution passes along chains)."""
    return _congruences(_join_roots(_roots(a)[None, :], _roots(b)))[0]


def meet_congruences(a: Congruence, b: Congruence) -> Congruence:
    """Common refinement."""
    return Congruence.from_ids(zip(a.ids, b.ids))


@dataclass(frozen=True)
class ConLattice:
    congruences: tuple
    lattice: FiniteLattice

    def __len__(self):
        return len(self.congruences)

    def index(self, c: Congruence) -> int:
        return self.congruences.index(c)


def all_congruences(lat: FiniteLattice, cap: int = CON_SIZE_CAP) -> ConLattice:
    """The congruence lattice, ordered by refinement; SizeLimitExceeded
    when the lattice or its congruence lattice has more than `cap`
    elements.

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

    The generators are ordered by con(a) <= con(b) iff b collapses a's
    pair, and the down-sets enumerated as bit rows along a linear
    extension: step t extends each down-set that holds everything below
    generator t by t, and the new congruence is the join of its parent's
    partition with generator t's.  A down-set's index is found by the
    same walk (`_down_set_index`), so the Con L tables come from the bits.
    """
    if lat.n > cap:
        raise SizeLimitExceeded(f"congruence computation capped at {cap} elements")
    ji = join_irreducibles(lat)
    lower = [lat.lower_covers(j)[0] for j in ji]
    gens = {}  # the distinct generators, by their root labels
    for roots, pair in zip(_principal_roots(lat, lower, ji), zip(lower, ji)):
        gens.setdefault(roots.tobytes(), (roots, pair))
    roots = np.array([r for r, _ in gens.values()]).reshape(-1, lat.n)
    lo, hi = np.array([p for _, p in gens.values()], dtype=np.intp).reshape(-1, 2).T
    below = (roots[:, lo] == roots[:, hi]).T  # below[a, b]: con(a) <= con(b)
    order = np.argsort(below.sum(axis=0), kind="stable")  # a linear extension
    below = below[np.ix_(order, order)]
    np.fill_diagonal(below, False)
    roots = roots[order]

    bits = np.zeros((1, len(order)), dtype=bool)
    labels = np.arange(lat.n)[None, :]
    children = []
    for t in range(len(order)):
        parents = np.flatnonzero(bits[:, below[:, t]].all(axis=1))
        if len(bits) + parents.size > cap:
            raise SizeLimitExceeded(f"more than {cap} congruences")
        child = np.full(len(bits), -1, dtype=np.int32)
        child[parents] = np.arange(len(bits), len(bits) + parents.size)
        children.append(child)
        grown = bits[parents]
        grown[:, t] = True
        bits = np.concatenate([bits, grown])
        labels = np.concatenate([labels, _join_roots(labels[parents], roots[t])])

    cons = _congruences(labels)
    perm = sorted(range(len(cons)), key=lambda r: (cons[r].block_count, cons[r].ids))
    rank = np.empty(len(perm), dtype=np.int32)
    rank[perm] = np.arange(len(perm))
    meet = rank[_down_set_index(children, bits, np.logical_and)][np.ix_(perm, perm)]
    join = rank[_down_set_index(children, bits, np.logical_or)][np.ix_(perm, perm)]
    cons = [cons[r] for r in perm]
    names = [f"con{i}/{c.block_count}b" for i, c in enumerate(cons)]
    leq = meet == np.arange(len(cons))[:, None]
    return ConLattice(tuple(cons),
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


def extend_congruence(k: TupleLattice, theta: Congruence) -> Congruence:
    """The congruence of the tuple lattice induced by componentwise
    equivalence; raises VerificationFailed unless it has the substitution
    property."""
    ext = Congruence.from_ids(
        tuple(theta.ids[c] for c in t) for t in k.tuples)
    if not has_substitution_property(k.lattice, ext):
        raise VerificationFailed(
            "componentwise extension lost the substitution property")
    return ext


def restrict_congruence(phi: Congruence, image: list[int]) -> Congruence:
    """Pull a congruence back along an embedding given by its image ids."""
    return Congruence.from_ids(phi.ids[e] for e in image)


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
    ext = [extend_congruence(k, th) for th in con_b.congruences]
    injective = len(set(ext)) == len(ext)
    con_k_set = set(con_k.congruences)
    are_congruences = all(e in con_k_set for e in ext)
    # every congruence of the extension arises by extending its restriction
    surjective = True
    for phi in con_k.congruences:
        theta = restrict_congruence(phi, image)
        if extend_congruence(k, theta) != phi:
            surjective = False
            break
    order_iso = all(
        ci.refines(cj) == ext[i].refines(ext[j])
        for i, ci in enumerate(con_b.congruences)
        for j, cj in enumerate(con_b.congruences))
    return CpeReport(len(con_b), len(con_k), injective, are_congruences,
                     surjective and len(con_b) == len(con_k), order_iso)
