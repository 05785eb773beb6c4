"""Congruences of finite lattices, their lattice, and verification that
the balanced-triple construction is a congruence-preserving extension."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import FiniteLattice, join_irreducibles, lattice_from_leq
from .construct import TupleLattice, embed_atom, embed_diag, m3_of
from .errors import ArgumentOutOfRange, SizeLimitExceeded, VerificationFailed

CON_SIZE_CAP = 300


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


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def _generated_congruence(lat: FiniteLattice, pairs) -> Congruence:
    """Least congruence collapsing every given pair.

    Label propagation over whole meet/join tables: lab[e] is the least
    element of e's block.  Each round collapses the given pairs and, for
    both tables T and every e at once, the row T[e, :] with the row
    T[lab[e], :]: it hooks each block's root onto the smaller root with
    np.minimum.at, then pointer-jumps until every label is a root.  Once a
    round has nothing left to collapse, the partition has the substitution
    property: x and y in one block share the root r, and T[x, c], T[r, c]
    and T[y, c] lie in one block.
    """
    tables = (lat.meet_table, lat.join_table)
    elements = np.arange(lat.n, dtype=lat.meet_table.dtype)
    lab = elements.copy()
    pairs = np.asarray(list(pairs), dtype=elements.dtype).reshape(-1, 2)
    lo, hi = pairs[:, 0], pairs[:, 1]
    while True:
        ru, rv = lab[lo], lab[hi]
        if np.array_equal(ru, rv):
            return Congruence.from_ids(lab.tolist())
        low = np.minimum(ru, rv)
        np.minimum.at(lab, ru, low)
        np.minimum.at(lab, rv, low)
        jumped = lab[lab]
        while not np.array_equal(jumped, lab):
            lab, jumped = jumped, jumped[jumped]
        moved = np.flatnonzero(lab != elements)
        lo = np.concatenate([pairs[:, 0]] + [t[moved].ravel() for t in tables])
        hi = np.concatenate([pairs[:, 1]] + [t[lab[moved]].ravel() for t in tables])


def principal_congruence(lat: FiniteLattice, a: int, b: int) -> Congruence:
    """Least congruence identifying a and b."""
    return _generated_congruence(lat, [(a, b)])


def join_congruences(a: Congruence, b: Congruence) -> Congruence:
    """Least equivalence containing both; for congruences of a common
    lattice this is again a congruence (substitution passes along chains)."""
    n = len(a.ids)
    uf = _UnionFind(n)
    first_a: dict[int, int] = {}
    first_b: dict[int, int] = {}
    for e in range(n):
        ra = first_a.setdefault(a.ids[e], e)
        rb = first_b.setdefault(b.ids[e], e)
        uf.union(ra, e)
        uf.union(rb, e)
    return Congruence.from_ids(uf.find(e) for e in range(n))


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
    """The congruence lattice, ordered by refinement.

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
    congruences.
    """
    if lat.n > cap:
        raise SizeLimitExceeded(f"congruence computation capped at {cap} elements")
    generators = {principal_congruence(lat, lat.lower_covers(j)[0], j)
                  for j in join_irreducibles(lat)}
    identity = Congruence.from_ids(range(lat.n))
    found = {identity}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for g in generators:
            nxt = join_congruences(cur, g)
            if nxt not in found:
                found.add(nxt)
                frontier.append(nxt)
    cons = sorted(found, key=lambda c: (c.block_count, c.ids))
    k = len(cons)
    leq = np.zeros((k, k), dtype=bool)
    for i, ci in enumerate(cons):
        for j, cj in enumerate(cons):
            leq[i, j] = ci.refines(cj)
    names = [f"con{i}/{ci.block_count}b" for i, ci in enumerate(cons)]
    return ConLattice(tuple(cons),
                      lattice_from_leq(leq, names=names,
                                       name=f"Con({lat.name or '?'})"))


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


def verify_cpe(base: FiniteLattice, embedding: str = "atom") -> CpeReport:
    """Check that the balanced-triple lattice over the base is a
    congruence-preserving extension: componentwise extension is a bijection
    Con(base) -> Con(extension) inverse to restriction along the embedding,
    and it preserves the refinement order both ways."""
    embeddings = {"atom": embed_atom, "diag": embed_diag}
    if embedding not in embeddings:
        raise ArgumentOutOfRange(
            f"embedding must be 'atom' or 'diag', not {embedding!r}")
    k = m3_of(base)
    if k.lattice is None or len(k) > CON_SIZE_CAP:
        raise SizeLimitExceeded("extension lattice above the congruence cap")
    image = embeddings[embedding](k)
    con_b = all_congruences(base)
    con_k = all_congruences(k.lattice)

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
