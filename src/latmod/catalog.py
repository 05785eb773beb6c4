"""Named constructors for the lattices the toolkit works with, the
grid-decoration machinery, and the small-lattice enumerator."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from random import Random
from typing import Iterator

import numpy as np

from . import core
from .core import CoverList, FiniteLattice, from_covers, direct_product, lattice_from_leq
from .errors import (
    ArgumentOutOfRange,
    DecorationConflict,
    ReconstructionInvalid,
    SizeLimitExceeded,
)

SUBSPACE_CAP = 4096
# largest n of the ladder family l_family(n)
L_FAMILY_CAP = 16


def _check_size(label: str, size: int):
    """SizeLimitExceeded, before any covers are built, above core.ELEMENT_CAP."""
    if size > core.ELEMENT_CAP:
        raise SizeLimitExceeded(f"{label} has {size} elements, above the cap {core.ELEMENT_CAP}")


def chain(n: int) -> FiniteLattice:
    """The n-element chain C_n."""
    if n < 1:
        raise ArgumentOutOfRange("chain needs n >= 1")
    _check_size(f"C{n}", n)
    covers = tuple((i, i + 1) for i in range(n - 1))
    return from_covers(CoverList(n, covers), name=f"C{n}")


def boolean(n: int) -> FiniteLattice:
    """The Boolean lattice B_n with 2^n elements; boolean(0) is C_1."""
    if n < 0:
        raise ArgumentOutOfRange("boolean needs n >= 0")
    if n >= core.ELEMENT_CAP.bit_length():  # 2^n > ELEMENT_CAP
        raise SizeLimitExceeded(f"B{n} has 2^{n} elements, above the cap {core.ELEMENT_CAP}")
    size = 1 << n
    covers = tuple((s, s | (1 << b)) for s in range(size) for b in range(n)
                   if not s & (1 << b))
    names = tuple("{" + ",".join(str(b) for b in range(n) if s & (1 << b)) + "}"
                  for s in range(size))
    return from_covers(CoverList(size, covers, names), name=f"B{n}")


def m_k(k: int) -> FiniteLattice:
    """M_k: the height-2 lattice with k atoms (M_3, M_4, ...)."""
    if k < 3:
        raise ArgumentOutOfRange("m_k needs k >= 3")
    _check_size(f"M{k}", k + 2)
    top = k + 1
    covers = tuple((0, a) for a in range(1, k + 1)) + tuple((a, top) for a in range(1, k + 1))
    atom_names = "abcdefghij"
    names = ("0",) + tuple(atom_names[i] if i < len(atom_names) else f"a{i}"
                           for i in range(k)) + ("1",)
    return from_covers(CoverList(k + 2, covers, names), name=f"M{k}")


def n5() -> FiniteLattice:
    """The pentagon: zero o, unit i, chain o < b < a < i, and side element c."""
    covers = ((0, 1), (1, 2), (0, 3), (2, 4), (3, 4))
    return from_covers(CoverList(5, covers, ("o", "b", "a", "c", "i")), name="N5")


def c2sq() -> FiniteLattice:
    """The four-element square C_2^2."""
    lat = direct_product(chain(2), chain(2), name="C2xC2")
    return lat


_FANO_LINES = ("124", "235", "346", "457", "561", "672", "713")


def fano() -> FiniteLattice:
    """The 16-element subspace lattice of the Fano plane.

    Points are named 1..7; the seven lines are 124, 235, 346, 457, 561,
    672, 713; the whole plane is PL.
    """
    names = ("0",) + tuple(str(p) for p in range(1, 8)) + _FANO_LINES + ("PL",)
    covers = []
    for p in range(1, 8):
        covers.append((0, p))
    for li, line in enumerate(_FANO_LINES):
        for ch in line:
            covers.append((int(ch), 8 + li))
        covers.append((8 + li, 15))
    return from_covers(CoverList(16, tuple(covers), names), name="F7")


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % p for p in range(2, int(q ** 0.5) + 1))


def subspace_lattice(q: int, d: int) -> FiniteLattice:
    """All subspaces of the d-dimensional vector space over the q-element
    field (prime q), ordered by inclusion."""
    if d < 1:
        raise ArgumentOutOfRange("d >= 1 required")
    # before q ** d and the primality test: both take long for huge q or d
    if q >= 2 and (d >= SUBSPACE_CAP.bit_length() or q ** d > SUBSPACE_CAP):
        raise SizeLimitExceeded(f"q^d = {q}^{d} exceeds cap {SUBSPACE_CAP}")
    if not _is_prime(q):
        raise ArgumentOutOfRange(f"q={q} not in the supported set (primes)")
    # the subspace count, a sum of Gaussian binomials, before any is built
    count, term = 0, 1
    for k in range(d + 1):
        count += term
        term = term * (q ** (d - k) - 1) // (q ** (k + 1) - 1)
    _check_size(f"Sub({q},{d})", count)
    member, dims = _subspaces(q, d)
    # i <= k iff no vector of subspace i lies outside subspace k; float32
    # counts are exact up to q^d <= 2^24
    rows = member.astype(np.float32)
    leq = rows @ (1 - rows).T == 0
    names = [f"S{i}d{k}" for i, k in enumerate(dims)]
    return lattice_from_leq(leq, names=names, name=f"Sub({q},{d})")


def _grid(q: int, k: int) -> np.ndarray:
    """All q^k vectors over Z_q of length k, as rows in lexicographic order."""
    return np.indices((q,) * k).reshape(k, q ** k).T


def _subspaces(q: int, d: int) -> tuple[np.ndarray, list[int]]:
    """Every subspace of Z_q^d once, as a membership row over the vectors
    (a vector's column is its entries read as a base-q number), with its
    dimension.  Rows are ordered by dimension, then by the sorted list of
    member vectors.

    Each subspace is spanned from its reduced row echelon basis: for each
    set of pivot columns, the entries right of a row's pivot and outside
    the pivot columns are free.  Closing spans by adding one vector at a
    time would produce each subspace again from every subspace below it."""
    weights = q ** np.arange(d - 1, -1, -1)
    groups, dims = [np.zeros((1, 1), dtype=np.int64)], [0]
    for k in range(1, d + 1):
        coeffs = _grid(q, k)
        parts = []
        for piv in combinations(range(d), k):
            free = [(r, j) for r, p in enumerate(piv) for j in range(p + 1, d)
                    if j not in piv]
            vals = _grid(q, len(free))
            basis = np.zeros((len(vals), k, d), dtype=np.int64)
            basis[:, range(k), piv] = 1
            if free:
                basis[:, [r for r, _ in free], [j for _, j in free]] = vals
            parts.append(np.sort((coeffs @ basis) % q @ weights, axis=1))
        codes = np.concatenate(parts)
        groups.append(codes[np.lexsort(codes.T[::-1])])
        dims += [k] * len(codes)
    member = np.zeros((len(dims), q ** d), dtype=bool)
    member[np.repeat(np.arange(len(dims)), q ** np.array(dims)),
           np.concatenate([g.ravel() for g in groups])] = True
    return member, dims


# -- grid decorations (doubling elements over a chain-product grid) ------

@dataclass(frozen=True)
class GridDecoration:
    """A chain-product grid C_p x C_q plus doubling elements.

    Each addition is ("n", a, b) on a prime interval [a, b] of the grid
    (making it a 3-chain) or ("m", a, b) on a prime square (making it an
    M_3).  a and b are (row, col) grid coordinates.
    """

    rows: int
    cols: int
    added: tuple[tuple[str, tuple[int, int], tuple[int, int]], ...] = ()

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ArgumentOutOfRange("grid chains need at least one element")


def _grid_index(cols: int, coord: tuple[int, int]) -> int:
    return coord[0] * cols + coord[1]


def decorate_grid(dec: GridDecoration) -> FiniteLattice:
    """Build the decorated lattice and verify the structural conditions.

    Raises DecorationConflict naming the violated clause (C2/C3/C4).
    """
    rows, cols, h = dec.rows, dec.cols, len(dec.added)
    ng = rows * cols
    _check_size(f"grid{rows}x{cols}+{h}", ng + h)
    lowers, uppers, intervals = set(), set(), set()
    for kind, a, b in dec.added:
        for coord in (a, b):
            if not (0 <= coord[0] < rows and 0 <= coord[1] < cols):
                raise DecorationConflict("C4", f"coordinate {coord} outside grid")
        da = (b[0] - a[0], b[1] - a[1])
        if kind == "n":
            if sorted(da) != [0, 1]:
                raise DecorationConflict("C4", f"[{a},{b}] is not a prime interval")
        elif kind == "m":
            if da != (1, 1):
                raise DecorationConflict("C4", f"[{a},{b}] is not a prime square")
        else:
            raise DecorationConflict("C4", f"unknown decoration kind {kind!r}")
        if (a, b) in intervals:
            raise DecorationConflict("C2", f"two elements on interval [{a},{b}]")
        if a in lowers:
            raise DecorationConflict("C3", f"two added elements share lower bound {a}")
        if b in uppers:
            raise DecorationConflict("C3", f"two added elements share upper bound {b}")
        intervals.add((a, b))
        lowers.add(a)
        uppers.add(b)

    # grid element (i, j) has index i * cols + j; the order is componentwise
    r, c = np.divmod(np.arange(ng), cols)
    grid = (r[:, None] <= r) & (c[:, None] <= c)
    n = ng + h
    leq = np.zeros((n, n), dtype=bool)
    leq[:ng, :ng] = grid
    names = [f"({x},{y})" for x, y in zip(r.tolist(), c.tolist())]
    bounds = []
    for i, (kind, a, b) in enumerate(dec.added):
        e = ng + i
        ia, ib = _grid_index(cols, a), _grid_index(cols, b)
        bounds.append((ia, ib))
        leq[e, e] = True
        leq[:ng, e] = grid[:, ia]   # x <= e iff x <= a
        leq[e, :ng] = grid[ib, :]   # e <= y iff b <= y
        names.append(f"{kind}({a[0]},{a[1]})")
    for i, (_, ib1) in enumerate(bounds):
        for k, (ia2, _) in enumerate(bounds):
            if i != k and grid[ib1, ia2]:
                leq[ng + i, ng + k] = True  # e_i <= b_i <= a_k <= e_k
    lat = lattice_from_leq(leq, names=names,
                           name=f"grid{rows}x{cols}+{h}")
    return lat


def witness7() -> FiniteLattice:
    """The 7-element exactly-3-modular lattice: the C_3 x C_2 grid plus the
    doubling element on the prime interval [(1,0), (1,1)]."""
    return decorate_grid(GridDecoration(3, 2, (("n", (1, 0), (1, 1)),)))


def random_c1c4(seed: int, rows: int = 3, cols: int = 3,
                density: float = 0.5) -> FiniteLattice:
    """Deterministic-in-seed random decorated grid satisfying (C1)-(C4)."""
    rng = Random(seed)
    candidates: list[tuple[str, tuple[int, int], tuple[int, int]]] = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                candidates.append(("n", (r, c), (r + 1, c)))
            if c + 1 < cols:
                candidates.append(("n", (r, c), (r, c + 1)))
            if r + 1 < rows and c + 1 < cols:
                candidates.append(("m", (r, c), (r + 1, c + 1)))
    rng.shuffle(candidates)
    target = round(density * len(candidates))
    chosen, lowers, uppers = [], set(), set()
    for cand in candidates:
        if len(chosen) >= target:
            break
        _, a, b = cand
        if a in lowers or b in uppers:
            continue
        chosen.append(cand)
        lowers.add(a)
        uppers.add(b)
    return decorate_grid(GridDecoration(rows, cols, tuple(chosen)))


# -- the ascending-ladder family (one exactly (n+1)-modular lattice per n) --

def _ladder_extend(copy_leq: np.ndarray, copy_names: list[str],
                   xi: int, zi: int, level: int):
    """Glue a 5-element bottom gadget under `copy`, producing a lattice whose
    step-map trace climbs one rung further than the copy's.

    New elements: bottom, two incomparable seeds (one under the new x and the
    old x-ladder foot, one under the new z and the old z-ladder foot).
    """
    m = copy_leq.shape[0]
    n = m + 5
    BOT, A, B, X, Z = m, m + 1, m + 2, m + 3, m + 4
    leq = np.zeros((n, n), dtype=bool)
    leq[:m, :m] = copy_leq
    for e in (BOT, A, B, X, Z):
        leq[e, e] = True
    leq[BOT, :] = True
    leq[A, :m] = True          # a below every copy element (copy has a bottom)
    leq[B, :m] = True
    leq[A, X] = True
    leq[B, Z] = True
    leq[X, :m] = copy_leq[xi, :]   # x below exactly what the old ladder foot is below
    leq[Z, :m] = copy_leq[zi, :]
    names = list(copy_names) + [f"bot{level}", f"a{level}", f"b{level}",
                                f"x{level}", f"z{level}"]
    return leq, names, X, Z


def l_family(n: int) -> FiniteLattice:
    """A bounded lattice of modularity rank exactly n+1, with a designated
    triple (x0, y0, z0) whose trace climbs the ladder x0 < x1 < ... < xn < 1.

    The diagram is a reconstruction constrained by the required algebra; the
    constructor verifies the rank and raises ReconstructionInvalid otherwise.
    """
    if not (1 <= n <= L_FAMILY_CAP):
        raise ArgumentOutOfRange(f"l_family supports 1 <= n <= {L_FAMILY_CAP}")
    base = boolean(3)
    # designated coatoms of the core block: x climbs to {1,2}v, z to {0,1}v
    xi = base.index_of("{1,2}")
    yi = base.index_of("{0,2}")
    zi = base.index_of("{0,1}")
    leq = base.leq.copy()
    names = [f"x{n}" if i == xi else f"y0" if i == yi else f"z{n}" if i == zi
             else f"core:{s}" for i, s in enumerate(base.names)]
    for level in range(n - 1, -1, -1):
        leq, names, xi, zi = _ladder_extend(leq, names, xi, zi, level)
    lat = lattice_from_leq(leq, names=names, name=f"L{n}")
    from . import rank
    r = rank.modularity_rank(lat)
    if r != n + 1:
        raise ReconstructionInvalid(
            f"ladder lattice for n={n} has rank {r}, expected {n + 1}")
    return lat


# -- exhaustive enumeration of small lattices -----------------------------

def enumerate_lattices(n: int) -> Iterator[FiniteLattice]:
    """All lattices with n elements, one per natural labeling.

    Elements are produced in a linear extension with 0 the bottom and n-1
    the top; every isomorphism class appears (possibly more than once).
    """
    if n < 1:
        raise ArgumentOutOfRange("n >= 1 required")
    if n == 1:
        yield chain(1)
        return
    if n == 2:
        yield chain(2)
        return

    full = (1 << n) - 1

    def emit(downs: list[int]) -> FiniteLattice:
        leq = np.zeros((n, n), dtype=bool)
        for e, d in enumerate(downs):
            for j in range(n):
                leq[j, e] = bool(d >> j & 1)
        return lattice_from_leq(leq)

    def rec(downs: list[int], down_set_cache: set[int]):
        k = len(downs)
        if k == n - 1:
            yield emit(downs + [full])
            return
        # candidate down-sets for element k: down-closed, contain the bottom,
        # and meet-compatible with every existing element
        prev = range(k)
        for s in range(1, 1 << k, 2):  # bit 0 (the bottom) always present
            ok = True
            for j in prev:
                if s >> j & 1 and downs[j] & ~s & ((1 << k) - 1):
                    ok = False  # not down-closed
                    break
            if not ok:
                continue
            d = s | (1 << k)
            for j in prev:
                if (downs[j] & s) not in down_set_cache:
                    ok = False  # meet with element j would not exist
                    break
            if not ok:
                continue
            downs.append(d)
            down_set_cache.add(d)
            yield from rec(downs, down_set_cache)
            downs.pop()
            down_set_cache.discard(d)

    yield from rec([1], {1})


# -- name registry ---------------------------------------------------------

def _spec_ints(spec: str, body: str, count: int) -> list[int]:
    """The comma-separated integer arguments of a lattice spec."""
    try:
        vals = [int(v) for v in body.split(",")]
    except ValueError:
        vals = []
    if len(vals) != count:
        raise ArgumentOutOfRange(
            f"lattice spec {spec!r} needs {count} integer argument(s)")
    return vals


def by_name(spec: str):
    """Resolve a lattice spec: m3, m4, ..., n5, c2sq, b<n>, c<n>, fano,
    witness7, l:<n>, subspace:<q>,<d>, file:<path>; m3[<spec>] and
    m4[<spec>] give the TupleLattice M3 or M4 of `tables(<spec>)`."""
    s = spec.strip().lower()
    if s.startswith("file:"):
        with open(spec.strip()[len("file:"):], "r", encoding="utf-8") as fh:
            return core.parse(fh.read())
    if s[:3] in ("m3[", "m4[") and s.endswith("]"):
        from . import construct  # noqa: PLC0415
        try:
            base = tables(spec.strip()[3:-1])
        except ArgumentOutOfRange as exc:
            raise ArgumentOutOfRange(f"in lattice spec {spec.strip()!r}: {exc}") from None
        return (construct.m3_of if s[1] == "3" else construct.m4_of)(base)
    if s.startswith("l:"):
        return l_family(*_spec_ints(spec, s[len("l:"):], 1))
    if s.startswith("subspace:"):
        return subspace_lattice(*_spec_ints(spec, s[len("subspace:"):], 2))
    named = {"n5": n5, "c2sq": c2sq, "fano": fano, "witness7": witness7}
    if s in named:
        return named[s]()
    if s[:1] in ("m", "b", "c") and s[1:].isdecimal():  # not isdigit: "²" is one
        return {"m": m_k, "b": boolean, "c": chain}[s[0]](*_spec_ints(spec, s[1:], 1))
    raise ArgumentOutOfRange(f"unknown lattice spec: {spec!r}")


def tables(spec: str) -> FiniteLattice:
    """by_name(spec), a TupleLattice through its tables (`TupleLattice.lattice`)."""
    lat = by_name(spec)
    return lat if isinstance(lat, FiniteLattice) else lat.lattice
