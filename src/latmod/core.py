"""Finite lattice representation and structural queries.

A lattice is stored densely: an n x n boolean order table plus full
n x n meet and join tables, so that every downstream scan is a table
lookup.  Construction validates the lattice axioms once; everything
else assumes total tables.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    CycleDetected,
    EnumerationLimitExceeded,
    NotALattice,
    ParseError,
    SizeLimitExceeded,
    VerificationFailed,
)

ISO_SIZE_CAP = 5000
# order-preserving maps isotone_maps may enumerate
ISOTONE_MAP_CAP = 10_000_000
# elements of a lattice built from covers or an order; its order and tables
# take 9 * n^2 bytes, and building them peaks at 9.3-11.1 * n^2 (tracemalloc,
# chain(4096) to M3[Fano]), validating at 1.4-2.1 * n^2
ELEMENT_CAP = 4096


@dataclass(frozen=True)
class CoverList:
    """Hasse-diagram input encoding: element count plus (lower, upper) pairs."""

    size: int
    covers: tuple[tuple[int, int], ...]
    names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.size < 1:
            raise ParseError("a lattice needs at least one element")
        if self.size > ELEMENT_CAP:
            raise SizeLimitExceeded(f"{self.size} elements exceed the cap {ELEMENT_CAP}")
        for lo, hi in self.covers:
            if not (0 <= lo < self.size and 0 <= hi < self.size):
                raise ParseError(f"cover ({lo},{hi}) out of range for size {self.size}")
            if lo == hi:
                raise ParseError(f"cover ({lo},{hi}) is reflexive")
        if self.names is not None and len(self.names) != self.size:
            raise ParseError("names length does not match element count")


class _CoverIndex:
    """The Hasse diagram of an order leq (leq[a, b] = a <= b): the cover
    pairs (lower, upper) in lexicographic order, and each element's lower
    and upper covers in ascending order.  With `check`, NotALattice unless
    leq is a partial order.

    One pass along ext, the stable argsort of the up-set sizes, so an
    element lies at a higher position than every element strictly above it
    in a partial order.  Each up-set is a Python int over positions, packed
    from the rows of leq with no transpose.  At the element a at position
    p, rem = up(a) minus bit p; while rem is not empty, the element c at its
    highest bit is an upper cover of a, and rem &= ~up(c).  With `check`, a
    bit of rem at position p or above is a fault, and so is an up(c) not
    inside up(a).  A pass costs O(n^2) to pack and O(covers * n / 64) word
    operations.

    A pass without a fault checks the order, by strong induction on the
    position.  Every bit of up(a) but a's own lies below a's position, so
    a < b < a is impossible: each would lie below the other's position.
    Each x > a is cleared by a cover c <= x at a lower position; by the
    induction hypothesis up(c) is transitively closed, and it lies inside
    up(a), so a <= x <= y gives a <= y.  The highest remaining bit is a
    minimal element of up(a) minus a, hence an upper cover: an element
    strictly between would lie at a higher position, and the cover that
    cleared it would have cleared this one too.  So no upper cover is ever
    cleared.  A partial order never faults: up(c) lies inside up(a) by
    transitivity, and a < b gives up(b) strictly inside up(a), so b at a
    lower position.  On a fault the kind comes from the whole relation, not
    from the point of failure, so it is the one the checks name in order:
    reflexivity, then antisymmetry, then transitivity.  Without `check`,
    each element's own bit is set, so the pass ends on any relation.
    """

    __slots__ = ("pairs", "lower", "upper")

    def __init__(self, leq: np.ndarray, check: bool = False):
        n = leq.shape[0]
        if check and not np.diag(leq).all():
            raise NotALattice(-1, -1, "reflexivity")
        ext = np.argsort(leq.sum(axis=1), kind="stable")
        bits = np.take(leq, ext, axis=1)  # np.take: fancy indexing is 5x slower at n = 4096
        bits[ext, np.arange(n)] = True
        packed = np.packbits(bits, axis=1, bitorder="little")
        data, width = packed.tobytes(), packed.shape[1]
        up = [int.from_bytes(data[i * width:(i + 1) * width], "little") for i in range(n)]
        ext = ext.tolist()
        self.upper = [[] for _ in range(n)]
        for p, a in enumerate(ext):
            rem, outside = up[a] ^ 1 << p, ~up[a]
            if check and rem >> p:
                raise _order_fault(leq)
            covers = self.upper[a]
            while rem:
                c = ext[rem.bit_length() - 1]
                if check and up[c] & outside:
                    raise _order_fault(leq)
                covers.append(c)
                rem &= ~up[c]
            covers.sort()
        self.pairs = [(a, b) for a, covers in enumerate(self.upper) for b in covers]
        self.lower = [[] for _ in range(n)]
        for a, b in self.pairs:
            self.lower[b].append(a)


def _order_fault(leq: np.ndarray) -> NotALattice:
    """The fault of a reflexive relation that is no partial order:
    antisymmetry if two elements lie below each other, else transitivity."""
    twice = leq & leq.T & ~np.eye(leq.shape[0], dtype=bool)
    return NotALattice(-1, -1, "antisymmetry" if twice.any() else "transitivity")


class FiniteLattice:
    """Dense-indexed finite lattice with precomputed order/meet/join tables.

    Instances are immutable after construction and safe for concurrent reads;
    the cover index, the bounds, the automorphism generators and the
    step-map closure tables (`rank._closures`, one per arity, read-only) are
    filled in lazily, idempotently.
    """

    __slots__ = ("n", "leq", "meet_table", "join_table", "names", "name",
                 "_covers", "_bottom", "_top", "_automorphisms", "_closures")

    def __init__(self, leq: np.ndarray, meet_table: np.ndarray, join_table: np.ndarray,
                 names: Optional[Sequence[str]] = None, name: str = ""):
        n = leq.shape[0]
        self.n = n
        self.leq = leq
        self.meet_table = meet_table
        self.join_table = join_table
        self.names = list(names) if names is not None else [str(i) for i in range(n)]
        self.name = name
        self._covers: Optional[_CoverIndex] = None
        self._bottom: Optional[int] = None
        self._top: Optional[int] = None
        self._automorphisms: Optional[AutomorphismGroup] = None
        self._closures: dict = {}
        for arr in (self.leq, self.meet_table, self.join_table):
            arr.setflags(write=False)

    # -- basic queries -------------------------------------------------

    def __len__(self):
        return self.n

    def le(self, a: int, b: int) -> bool:
        return bool(self.leq[a, b])

    # Two ids give an int; id arrays give the broadcast results by a 1-D
    # `take` at a*n + b (2-D fancy indexing made the plane scans about 30%
    # slower).  Arrays are tested for first: catching `item`'s TypeError
    # slowed the many small batches of the census workload.

    def meet(self, a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return self.meet_table.ravel().take(a * self.n + b)
        return self.meet_table.item(a, b)

    def join(self, a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return self.join_table.ravel().take(a * self.n + b)
        return self.join_table.item(a, b)

    @property
    def bottom(self) -> int:
        if self._bottom is None:
            self._bottom = int(np.flatnonzero(self.leq.all(axis=1))[0])
        return self._bottom

    @property
    def top(self) -> int:
        if self._top is None:
            self._top = int(np.flatnonzero(self.leq.all(axis=0))[0])
        return self._top

    def elements(self) -> range:
        return range(self.n)

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def _cover_index(self) -> _CoverIndex:
        if self._covers is None:
            self._covers = _CoverIndex(self.leq)
        return self._covers

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (lower, upper), lexicographically ordered."""
        return self._cover_index().pairs

    def lower_covers(self, a: int) -> list[int]:
        return list(self._cover_index().lower[a])

    def upper_covers(self, a: int) -> list[int]:
        return list(self._cover_index().upper[a])

    def automorphisms(self) -> AutomorphismGroup:
        """Generators of the automorphism group, computed from the order."""
        if self._automorphisms is None:
            self._automorphisms = _automorphism_group(self)
        return self._automorphisms

    def height(self) -> int:
        """Length of a longest chain (number of covers on it)."""
        lower = self._cover_index().lower
        h = [0] * self.n
        for v in np.argsort(self.leq.sum(axis=0), kind="stable").tolist():
            if lower[v]:
                h[v] = 1 + max(h[lo] for lo in lower[v])
        return max(h)

    def validate(self):
        """Exhaustively re-check the lattice axioms; raises on failure."""
        covers = _CoverIndex(self.leq, check=True)
        _check_tables(self.leq, self.meet_table, self.join_table, covers)

    def __repr__(self):
        label = self.name or "lattice"
        return f"<FiniteLattice {label} n={self.n}>"

    def __eq__(self, other):
        return (isinstance(other, FiniteLattice) and self.n == other.n
                and np.array_equal(self.leq, other.leq)
                and np.array_equal(self.meet_table, other.meet_table)
                and np.array_equal(self.join_table, other.join_table))

    def __hash__(self):
        return hash((self.n, self.leq.tobytes()))


# -- the order engine ------------------------------------------------------
#
# No step takes a matrix product.  The covers, and the check that the order
# is a partial order, come from one pass over up-sets packed as bit words
# along a linear extension (_CoverIndex), the transitive reduction of A. V.
# Aho, M. R. Garey, J. D. Ullman, SIAM J. Comput. 1 (1972); interval sizes
# by a BLAS product are the test oracle.  Meet and join tables are filled
# row by row along a linear extension, each row the elementwise maximum, in
# extension positions, of its own up-set (down-set) entries and its lower
# (upper) covers' rows; an argmax of the down-set sizes over the covers'
# entries is the test oracle.  Each table entry m of the pair (a, b) is the
# glb iff down_S(m) = down_S(a) & down_S(b) for a join-dense set S, the
# down-sets packed in 64-bit words; a count of common lower bounds by a BLAS
# product is the test oracle.

# rows mapped from extension positions back to elements at a time
_MAP_BLOCK = 256
# entries of a table checked, or of an order tested, at a time
_CHECK_BLOCK = 1 << 16


def _candidate_glbs(order: np.ndarray, lower: list[list[int]]) -> np.ndarray:
    """The glb table of `order` (order[a, b] = a <= b) if it is a lattice.

    Entries are held as their elements' positions in a linear extension ext
    (the stable argsort of the down-set sizes) while rows are filled in ext
    order: glb(a, b) = a when a <= b, and otherwise glb(a, b) <= a' for some
    lower cover a' of a, so it is the greatest of the glb(a', b), the one at
    the largest position; -1 when a has no lower cover.  So each row is the
    elementwise maximum of its own up-set entries and its lower covers'
    rows.  Positions are mapped back to elements in place, a block of rows
    at a time.

    Every entry is -1 or a common lower bound of its pair, so it is the
    glb wherever one exists, and _check_tables finds the first pair
    without one.  The test oracle takes the argmax of the down-set sizes
    over the lower covers' entries instead.
    """
    n = order.shape[0]
    ext = np.argsort(order.sum(axis=0), kind="stable")
    pos = np.empty(n, dtype=np.int32)
    pos[ext] = np.arange(n, dtype=np.int32)
    out = np.full((n, n), -1, dtype=np.int32)
    np.copyto(out, pos[:, None], where=order)  # glb(a, b) = a when a <= b
    for a in ext.tolist():
        below = lower[a]
        if len(below) == 1:
            np.maximum(out[a], out[below[0]], out=out[a])
        elif below:
            np.maximum.reduce(out[below + [a]], axis=0, out=out[a])
    element = np.append(ext, -1).astype(np.int32)  # element[-1] = -1: no candidate
    for r in range(0, n, _MAP_BLOCK):
        out[r:r + _MAP_BLOCK] = element[out[r:r + _MAP_BLOCK]]
    return out


def _words(bits: int) -> int:
    """The 64-bit words that hold `bits` bits."""
    return -(-bits // 64)


def _joins_dense(order: np.ndarray, lower: list[list[int]]) -> bool:
    """The density test: a least element exists, and every common upper
    bound of the first two lower covers of an element lies above it.  A
    lattice passes: the lub of two lower covers c1, c2 of x lies strictly
    above c1, which is incomparable to c2, and below x, which covers c1,
    so it is x."""
    n = order.shape[0]
    if not order.all(axis=1).any():
        return False
    many = [x for x in range(n) if len(lower[x]) > 1]
    rows = max(1, _CHECK_BLOCK // n)
    for i in range(0, len(many), rows):
        xs = many[i:i + rows]
        c1, c2 = [lower[x][0] for x in xs], [lower[x][1] for x in xs]
        if (order[c1] & order[c2] & ~order[xs]).any():
            return False
    return True


def _down_words(order: np.ndarray, lower: list[list[int]]) -> np.ndarray:
    """down_S(x) = {s in S : s <= x} for every x, as a (words, n) array of
    64-bit words, for a join-dense set S: each x is the lub of down_S(x).

    S is J, the elements with exactly one lower cover, when it packs into
    fewer words than all n elements and passes the density test.  Then,
    by induction along a linear extension, each x is the lub of down_J(x):
    the least element that of the empty set, an element of J that of a set
    holding itself, and any other x that of a set holding down_J(c1) and
    down_J(c2) for its first two lower covers, since an upper bound of those
    lies above c1 and c2, hence above x.  Otherwise S is all n elements,
    join-dense in any poset, so n <= 64 takes one word and no test.
    """
    n = order.shape[0]
    joins = [x for x in range(n) if len(lower[x]) == 1]
    below = order
    if _words(len(joins)) < _words(n) and _joins_dense(order, lower):
        below = order[joins]
    packed = np.packbits(below.T, axis=1)
    words = np.zeros((n, 8 * _words(below.shape[0])), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return np.ascontiguousarray(words.view(np.uint64).T)


def _first_non_glb(order: np.ndarray, table: np.ndarray,
                   lower: list[list[int]]) -> Optional[tuple[int, int]]:
    """The first (a, b), row-major, whose table entry m is not glb(a, b),
    in the checked partial order `order` whose lower covers are `lower`.

    m is the glb iff 0 <= m < n and down_S(m) = down_S(a) & down_S(b),
    word by word, for the join-dense S of _down_words.  S is join-dense, so
    down_S(x) inside down_S(y) implies x <= y: equality gives m <= a and
    m <= b, and any common lower bound c has down_S(c) inside down_S(m), so
    c <= m.  The glb satisfies the equation: the intersection holds its
    down-set, and each s in it is a common lower bound, so s <= glb.

    Rows are checked a block at a time.  In a block whose elements are each
    comparable with every element, m must be a where a <= b and b where
    b <= a, so a chain costs O(n^2) and reads no words.  Where S takes more
    than one word, m <= a is tested first: it puts down_S(m) inside
    down_S(a), so a word that is zero in every row of the block is zero in
    m's too and is skipped on both sides.
    """
    n = order.shape[0]
    comparable = order.sum(axis=0) + order.sum(axis=1) == n + 1
    cols = np.arange(n)
    rows = max(1, _CHECK_BLOCK // n)
    down = None
    for r in range(0, n, rows):
        m = table[r:r + rows]
        if comparable[r:r + rows].all():
            ok = np.where(order[r:r + rows], m == cols[r:r + rows, None], m == cols)
        else:
            if down is None:
                down = _down_words(order, lower)
            ok = (m >= 0) & (m < n)
            m = np.where(ok, m, 0).astype(np.intp)
            read = range(len(down))
            if len(down) > 1:
                ok &= order[m, cols[r:r + rows, None]]
                read = np.flatnonzero(down[:, r:r + rows].any(axis=1)).tolist()
            for i in read:
                word = down[i]
                ok &= word.take(m) == word[r:r + rows, None] & word
        if not ok.all():
            a, b = divmod(int(np.argmin(ok)), n)
            return r + a, b
    return None


def _check_tables(leq: np.ndarray, meet: np.ndarray, join: np.ndarray,
                  covers: _CoverIndex):
    """Raise NotALattice at the first wrong meet entry, then join entry."""
    for kind, order, table, lower in (("meet", leq, meet, covers.lower),
                                      ("join", leq.T, join, covers.upper)):
        bad = _first_non_glb(order, table, lower)
        if bad is not None:
            raise NotALattice(*bad, kind)


def lattice_from_leq(leq: np.ndarray, names: Optional[Sequence[str]] = None,
                     name: str = "") -> FiniteLattice:
    """Build a FiniteLattice from a partial-order matrix (leq[a,b] = a<=b);
    ParseError unless it is square and 2-d, and SizeLimitExceeded above
    ELEMENT_CAP, before the matrix is copied."""
    leq = np.asarray(leq, dtype=bool)
    if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
        raise ParseError(f"an order matrix must be square, not of shape {leq.shape}")
    if leq.shape[0] > ELEMENT_CAP:
        raise SizeLimitExceeded(f"{leq.shape[0]} elements exceed the cap {ELEMENT_CAP}")
    if leq.shape[0] == 0:
        raise NotALattice(-1, -1, "no bottom")
    leq = leq.copy()
    covers = _CoverIndex(leq, check=True)
    meet = _candidate_glbs(leq, covers.lower)
    join = _candidate_glbs(leq.T, covers.upper)
    # a finite poset with all glbs and lubs is bounded: no separate check
    _check_tables(leq, meet, join, covers)
    lat = FiniteLattice(leq, meet, join, names=names, name=name)
    lat._covers = covers
    return lat


def from_covers(c: CoverList, name: str = "") -> FiniteLattice:
    """Build the lattice whose order is the reflexive-transitive closure
    of the given covers; fails with CycleDetected or NotALattice."""
    n = c.size
    # topological sort over the cover digraph
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for lo, hi in c.covers:
        succ[lo].append(hi)
        indeg[hi] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    topo = []
    indeg = indeg[:]
    while queue:
        v = queue.pop()
        topo.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(topo) != n:
        raise CycleDetected("cover relation contains a cycle")
    leq = np.eye(n, dtype=bool)
    for v in reversed(topo):
        for w in succ[v]:
            leq[v] |= leq[w]
    return lattice_from_leq(leq, names=c.names, name=name)


# -- structural operations ----------------------------------------------

def direct_product(a: FiniteLattice, b: FiniteLattice, name: str = "") -> FiniteLattice:
    """Componentwise product; element (i, j) gets index i*|B|+j."""
    na, nb = a.n, b.n
    leq = (a.leq[:, None, :, None] & b.leq[None, :, None, :]).reshape(na * nb, na * nb)
    meet = (a.meet_table[:, None, :, None].astype(np.int64) * nb
            + b.meet_table[None, :, None, :]).reshape(na * nb, na * nb).astype(np.int32)
    join = (a.join_table[:, None, :, None].astype(np.int64) * nb
            + b.join_table[None, :, None, :]).reshape(na * nb, na * nb).astype(np.int32)
    names = [f"({a.names[i]},{b.names[j]})" for i in range(na) for j in range(nb)]
    return FiniteLattice(leq, meet, join, names=names,
                         name=name or f"{a.name or 'A'}x{b.name or 'B'}")


def join_irreducibles(lat: FiniteLattice) -> list[int]:
    """Elements with exactly one lower cover (excludes the bottom)."""
    return [e for e in lat.elements() if len(lat.lower_covers(e)) == 1]


def meet_irreducibles(lat: FiniteLattice) -> list[int]:
    """Elements with exactly one upper cover (excludes the top)."""
    return [e for e in lat.elements() if len(lat.upper_covers(e)) == 1]


def is_distributive(lat: FiniteLattice) -> bool:
    """Exhaustive check of x ^ (y v z) == (x ^ y) v (x ^ z)."""
    m, j = lat.meet_table, lat.join_table
    for x in range(lat.n):
        lhs = m[x, j]                       # lhs[y, z]
        rhs = j[np.ix_(m[x], m[x])]         # rhs[y, z]
        if not np.array_equal(lhs, rhs):
            return False
    return True


def is_modular(lat: FiniteLattice) -> bool:
    """Exhaustive check of the modular law: x <= z implies x v (y ^ z) == (x v y) ^ z."""
    m, j, leq = lat.meet_table, lat.join_table, lat.leq
    for x in range(lat.n):
        zs = np.flatnonzero(leq[x])
        if zs.size == 0:
            continue
        lhs = j[x, m[:, zs]]                # lhs[y, k]
        rhs = m[j[x, :][:, None], zs[None, :]]
        if not np.array_equal(lhs, rhs):
            return False
    return True


# -- colour refinement, automorphisms and isomorphisms --------------------
#
# Individualization and refinement (B. D. McKay, A. Piperno, "Practical
# graph isomorphism, II", J. Symbolic Comput. 60 (2014)).  Colours are ranks
# of invariant keys, so a colouring computed on an isomorphic copy is the
# same colouring carried along the isomorphism.

_HASH_SEED = 0x1A77


def _digraph(adj: np.ndarray) -> list:
    """The out- and in-neighbours of the digraph with adjacency matrix adj,
    each as (neighbours, offsets): v's lie at neighbours[offsets[v]:offsets[v + 1]]."""
    return [(np.nonzero(a)[1], np.concatenate(([0], np.cumsum(a.sum(axis=1)))))
            for a in (adj, adj.T)]


@functools.lru_cache(maxsize=4)
def _hash_words(size: int) -> np.ndarray:
    """One fixed-seed random int64 word per colour of a `size`-vertex graph."""
    return np.random.default_rng(_HASH_SEED).integers(
        np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=size, dtype=np.int64,
        endpoint=True)


def _refine(graph: list, colors: np.ndarray) -> np.ndarray:
    """Refine a colouring, given as ranks 0..k-1, until no cell splits.

    Each round a vertex's colour becomes the rank of (colour, hash of its
    in-neighbours' colours, hash of its out-neighbours' colours), where a
    hash sums one fixed-seed random int64 word per colour over the
    neighbours, modulo 2**64: a function of the neighbour-colour counts.
    The ranks come from one lexsort of the three columns (np.unique with
    axis=0 sorts them as records, some 4x slower on 252 vertices).
    """
    words = _hash_words(colors.size)
    while True:
        keys = [colors]
        for nbr, offsets in graph:
            sums = np.concatenate(([0], np.cumsum(words.take(colors.take(nbr)))))
            keys.append(sums.take(offsets[1:]) - sums.take(offsets[:-1]))
        keys = np.stack(keys)
        order = np.lexsort(keys[::-1])
        ranked = keys[:, order]
        new = np.empty_like(colors)
        new[order] = np.concatenate(([0], np.cumsum((ranked[:, 1:] != ranked[:, :-1]).any(axis=0))))
        if new.max() == colors.max():
            return new
        colors = new


def _individualize(colors: np.ndarray, v: int) -> np.ndarray:
    """The colouring with v split off its cell, ranked just before it."""
    c = colors[v]
    out = colors + (colors >= c)
    out[v] = c
    return out


class AutomorphismGroup(NamedTuple):
    """Generators of Aut(L), each row a permutation of the elements, and the
    orbit sizes of the search's base points in their stabilizer chain:
    |Aut(L)| is their product."""

    generators: np.ndarray
    base_orbits: tuple


class _Incidence:
    """The J x M incidence graph of a lattice: the digraph j -> m, j <= m,
    on its join-irreducibles J (`joins`, vertices 0..nj-1) followed by its
    meet-irreducibles M, and its colouring refined from J against M.  A
    finite lattice is the concept lattice of this incidence, so a graph
    isomorphism that keeps J extends to the lattices by joins."""

    def __init__(self, lat: FiniteLattice):
        self.joins = np.array(join_irreducibles(lat), dtype=np.intp)
        meets = np.array(meet_irreducibles(lat), dtype=np.intp)
        self.nj, size = self.joins.size, self.joins.size + meets.size
        self.adj = np.zeros((size, size), dtype=bool)
        self.adj[:self.nj, self.nj:] = lat.leq[np.ix_(self.joins, meets)]
        self.graph = _digraph(self.adj)
        start = (np.arange(size) >= self.nj).astype(np.intp)
        self.colors = _refine(self.graph, start) if size else start


class _Search:
    """Individualization and refinement from the first path of g's tree
    into the tree of h, which is g itself when searching for automorphisms.

    Only J vertices are individualized.  The first path individualizes the
    first vertex of the first non-singleton J cell until J is discrete, one
    level at a time as far as it is asked for (`reach`); its base points
    v_1..v_k give the stabilizer chain.  `search` looks in a
    subtree of h's tree, pruned where the cell sizes differ from the first
    path's, for a node whose cell-by-cell match with the first path's node
    at its level preserves incidence; at a leaf that match is the colour
    match, and above it the match often succeeds early (on M_k at once,
    where a leaf lies k - i levels down).  Every J colour ranks below every
    M colour, so a match of equal cell sizes sends J onto J.
    """

    def __init__(self, g: _Incidence, h: _Incidence):
        self.g, self.h = g, h
        self.path, self.base, self.cells = [g.colors], [], []
        self.shapes = [np.bincount(g.colors)]

    def reach(self, level: int) -> bool:
        """Extend the first path to `level`, as far as it goes; whether it
        reaches that level.  A search that matches near the root builds
        only the levels it visits (on M_k none of the k - 1 below it)."""
        while len(self.path) <= level:
            cells = np.flatnonzero(np.bincount(self.path[-1][:self.g.nj]) > 1)
            if not cells.size:
                return False
            self.cells.append(int(cells[0]))
            self.base.append(int(np.flatnonzero(self.path[-1] == cells[0])[0]))
            self.path.append(_refine(self.g.graph, _individualize(self.path[-1], self.base[-1])))
            self.shapes.append(np.bincount(self.path[-1]))
        return True

    def match(self, colors, level, prefix):
        """The J map that takes path[level] to `colors` cell by cell,
        fixing each vertex whose cell is the same in both and pairing the
        others in index order, if it preserves incidence and sends the first
        len(prefix) base points to `prefix`; else None."""
        path = self.path[level]
        moved = colors != path
        sigma = np.empty(path.size, dtype=np.intp)
        sigma[np.lexsort((moved, path))] = np.lexsort((moved, colors))
        if (sigma[self.base[:len(prefix)]].tolist() == prefix
                and np.array_equal(self.h.adj[sigma][:, sigma], self.g.adj)):
            return sigma[:self.g.nj].tolist()
        return None

    def children(self, colors, level):
        for u in np.flatnonzero(colors == self.cells[level]).tolist():
            yield _refine(self.h.graph, _individualize(colors, u))

    def search(self, colors, level, prefix):
        """A J map found at `colors`, a node of h's tree at `level`, or in
        the subtree below it, depth first by a stack of child iterators:
        the depth can reach |J|, past the recursion limit."""
        stack = [iter([colors])]
        while stack:
            colors = next(stack[-1], None)
            if colors is None:
                stack.pop()
                continue
            depth = level + len(stack) - 1
            if not np.array_equal(np.bincount(colors), self.shapes[depth]):
                continue
            sigma = self.match(colors, depth, prefix)
            if sigma is not None:
                return sigma
            if self.reach(depth + 1):
                stack.append(self.children(colors, depth))
        return None


def _verified_isomorphism(a: FiniteLattice, b: FiniteLattice, joins: np.ndarray,
                          images: np.ndarray) -> np.ndarray:
    """The map of a into b that sends each join-irreducible joins[i] to
    images[i] and x to the join of the images of the join-irreducibles
    below it; VerificationFailed unless it is an order isomorphism, that
    is unless b.leq[p][:, p] == a.leq, which also makes p injective (p(x) =
    p(y) would give x <= y <= x), so onto when |a| = |b|."""
    perm = np.full(a.n, b.bottom, dtype=np.int32)
    for j, image in zip(joins.tolist(), images.tolist()):
        perm = np.where(a.leq[j], b.join_table[perm, image], perm)
    if not np.array_equal(b.leq[perm][:, perm], a.leq):
        raise VerificationFailed("candidate is not an isomorphism of the lattices")
    return perm


def _automorphism_group(lat: FiniteLattice) -> AutomorphismGroup:
    """Generators of Aut(L) by the search of `_Search` within L's own tree.

    Going up from the last level of the first path, each w in v_i's cell
    outside v_i's orbit under the generators found so far is tried: the
    subtree under v_1..v_{i-1}, w is searched for a match that fixes
    v_1..v_{i-1} and sends v_i to w.  Each hit is extended to L and checked
    to be an order automorphism.
    """
    g = _Incidence(lat)
    tree = _Search(g, g)
    tree.reach(g.nj)  # the whole first path: each level individualizes a J vertex
    path, base, cells = tree.path, tree.base, tree.cells
    # the orbits on J of the generators found so far, as a union-find forest;
    # those found at levels >= i fix v_1..v_{i-1}, and v_i's orbit lies in its cell
    root = list(range(g.nj))

    def find(u):
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    found, base_orbits = [], []
    for i in reversed(range(len(base))):
        cell = np.flatnonzero(path[i] == cells[i]).tolist()
        for w in cell:
            if find(w) != find(base[i]):
                sigma = tree.search(_refine(g.graph, _individualize(path[i], w)), i + 1,
                                    base[:i] + [w])
                if sigma is not None:
                    found.append(sigma)
                    for u, v in enumerate(sigma):
                        if u != v:
                            a, b = find(u), find(v)
                            root[max(a, b)] = min(a, b)
        base_orbits.append(sum(find(w) == find(base[i]) for w in cell))
    gens = [_verified_isomorphism(lat, lat, g.joins, g.joins[sigma]) for sigma in found]
    return AutomorphismGroup(np.array(gens, dtype=np.int32).reshape(-1, lat.n),
                             tuple(reversed(base_orbits)))


def find_isomorphism(a: FiniteLattice, b: FiniteLattice) -> Optional[list[int]]:
    """An isomorphism a -> b as an index list, or None.

    The search of `_Search` from a's first path into b's whole tree: that
    tree holds the image of the first path under any isomorphism, at a node
    whose colour match is that isomorphism on J, so a search that finds
    nothing proves there is none.  The J map found is extended by joins and
    checked as an order isomorphism, then against both operation tables.
    """
    if a.n != b.n:
        return None
    if a.n > ISO_SIZE_CAP:
        raise SizeLimitExceeded(f"isomorphism search capped at {ISO_SIZE_CAP} elements")
    g, h = _Incidence(a), _Incidence(b)
    if (g.nj, g.adj.shape) != (h.nj, h.adj.shape) or not np.array_equal(
            np.bincount(g.colors), np.bincount(h.colors)):
        return None
    sigma = _Search(g, h).search(h.colors, 0, [])
    if sigma is None:
        return None
    image = _verified_isomorphism(a, b, g.joins, h.joins[sigma])
    for kind, ta, tb in (("meet", a.meet_table, b.meet_table),
                         ("join", a.join_table, b.join_table)):
        if not np.array_equal(image[ta], tb[np.ix_(image, image)]):
            raise VerificationFailed(f"order isomorphism does not preserve {kind}")
    return image.tolist()


def isotone_maps(poset_leq: np.ndarray, target: FiniteLattice) -> list[tuple]:
    """All order-preserving maps from the poset into the target lattice,
    each as the tuple of its values."""
    p = poset_leq.shape[0]
    if target.n ** max(p, 1) > ISOTONE_MAP_CAP:
        raise EnumerationLimitExceeded(
            f"{target.n}^{p} maps exceed cap {ISOTONE_MAP_CAP}")
    # assign in a linear extension so constraints refer to assigned values
    order = sorted(range(p), key=lambda e: int(poset_leq[:, e].sum()))
    out: list[tuple] = []
    values = [0] * p

    def bt(k: int):
        if k == p:
            out.append(tuple(values))
            return
        e = order[k]
        for v in range(target.n):
            ok = True
            for e2 in order[:k]:
                if poset_leq[e2, e] and not target.leq[values[e2], v]:
                    ok = False
                    break
                if poset_leq[e, e2] and not target.leq[v, values[e2]]:
                    ok = False
                    break
            if ok:
                values[e] = v
                bt(k + 1)

    bt(0)
    return out


def pointwise_order(target: FiniteLattice, values: np.ndarray) -> np.ndarray:
    """leq[i, j] = values[i] <= values[j] in every column, in the target's
    order: the order of maps given as rows of their values."""
    leq = np.ones((len(values),) * 2, dtype=bool)
    for col in values.T:
        leq &= target.leq[col[:, None], col[None, :]]
    return leq


# -- serialization -------------------------------------------------------

def serialize(lat: FiniteLattice) -> str:
    """Lattice JSON: {"name", "elements", "covers"}; covers lexicographic."""
    doc = {
        "name": lat.name,
        "elements": list(lat.names),
        "covers": [[lo, hi] for lo, hi in lat.covers()],
    }
    return json.dumps(doc, indent=2)


def parse(text: str) -> FiniteLattice:
    """Inverse of serialize; raises ParseError/CycleDetected/NotALattice."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    for key in ("elements", "covers"):
        if key not in doc:
            raise ParseError(f"missing field: {key}")
    elements = doc["elements"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise ParseError("'elements' must be a list of strings")
    if len(set(elements)) != len(elements):
        raise ParseError("'elements' has a repeated name")
    if not isinstance(doc["covers"], list):
        raise ParseError("'covers' must be a list")
    covers = []
    for i, pair in enumerate(doc["covers"]):
        # JSON true/false load as bool, a subclass of int
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(type(v) is int for v in pair)):
            raise ParseError(f"covers[{i}] must be a pair of integers")
        covers.append((pair[0], pair[1]))
    cl = CoverList(size=len(elements), covers=tuple(covers), names=tuple(elements))
    return from_covers(cl, name=str(doc.get("name", "")))
