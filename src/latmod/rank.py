"""Balanced-triple and balanced-quadruple step maps, closure iteration,
and the modularity-rank engine.

The step map sends <x,y,z> to <x v (y^z), y v (x^z), z v (x^y)>; its
fixed points are exactly the balanced triples (all pairwise meets equal),
and iterating it computes the least balanced triple above the input.  A
lattice satisfies the n-th modularity identity exactly when every
triple's iteration stabilizes by index n; the modularity rank is the
least such n.

One arity-generic step map (`_step_columns`) reads only the lattice's
meet and join, so it serves one tuple of any lattice object (step3, step4
and closure3) and columns of ids of any lattice whose operations act on
id arrays.  Over a finite lattice it is tabulated once per arity over all
n^arity tuple keys, and each key's closure index and the id of its closure
among the fixed points are read off by gathers (`_closures`); the table is
cached on the lattice and shared by `construct`, whose M3[L] and M4[L] take
their elements, ids, meets and joins from it, and, up to `_TABLE_SCAN_KEYS`
triples, by both rank scans; `KEY_CAP` bounds it.  Larger scans run one
fixpoint loop (`_fixpoints`) through one triple generator (`_triples`) and
one scan loop (`_scan`), whose threads take its batches one at a time, over
one triple of each orbit of S3 x G (`_orbit_scan`), G the automorphism group
on larger lattices, else trivial.  The rank is read off the antichain scan,
with the modularity test for ranks 1 and 2; `rank_report` runs the full scan.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import FiniteLattice, is_modular
from .errors import ArgumentOutOfRange, RankExceedsCap, SizeLimitExceeded, VerificationFailed

# Triples per batch of every scan.  A batch's working set is some 66 bytes a
# triple, and each scan thread holds one, and its last while it takes the
# next.  It also sets the orbit scan's group (`_scan_route`), and only a scan
# of more than one batch starts threads.  At 500,000 the M3[M6] full scan
# peaked at 33 MiB against 7 MiB and ran slower (0.29-0.32 s against
# 0.17-0.24 s; tracemalloc, 2-core Xeon).
_BATCH = 100_000

# Keys, n^arity, of the closure table of a base lattice.  Building it takes 12
# bytes a key, and m3_of or m4_of with the first join 14.2-16.6 (M4[Sub(3,3)] and
# M3[Sub(2,4)], tracemalloc), so 2^26 keys is about 1 GB, which admits
# M3[Sub(2,5)] (374^3 keys).  Below 2^31, so int32 keys are exact.
KEY_CAP = 1 << 26

# Keys per block while the step table is tabulated and closed: the block's
# open mesh and its step columns are the working set beside the table.
_TABLE_BLOCK = 1 << 16

# The scans read the closure table when the lattice has at most this many
# triples, n^3 (n <= 22 elements), and take the orbit scan above it.
# The crossover was measured on a 2-core Xeon, medians of 41 runs, each table
# built afresh: at n = 22 a full scan by the table took 0.38-0.40 ms against
# 0.47-0.53 ms over the sorted triples (chain(22), M_20), at n = 26 0.92-1.02 ms
# against 0.54-0.69 ms.  The antichain scan of a chain, which has no
# antichains, is the worst case: 0.36-0.38 ms against 0.29 ms at n = 22.  A
# table the scan builds is kept, so M3[L]'s joins do not build it again.
_TABLE_SCAN_KEYS = 22 ** 3


class Triple(NamedTuple):
    x: object
    y: object
    z: object


class Quadruple(NamedTuple):
    x0: object
    x1: object
    x2: object
    x3: object


@dataclass(frozen=True)
class ClosureTrace:
    """The iteration record of a step map from one starting tuple.

    iterates[0] is the input; iterates[k] its k-th image.  If two
    consecutive iterates agree, stabilization_index is the first k with
    iterates[k] == iterates[k+1]; otherwise it is None and the trace was
    cut off at `cap` steps.
    """

    initial: tuple
    iterates: tuple
    stabilization_index: Optional[int]
    cap: int

    @property
    def stabilized(self) -> bool:
        return self.stabilization_index is not None

    @property
    def final(self) -> tuple:
        return self.iterates[-1]


def step3(lat, t) -> Triple:
    """One application of the adjustment map; extensive and isotone."""
    return Triple(*_step_columns(lat, t))


def step4(lat, q) -> Quadruple:
    """Each coordinate joins with all pairwise meets of the other three."""
    return Quadruple(*_step_columns(lat, q))


def _cap(lat, cap: Optional[int]) -> int:
    """The step cap of closure3: 3 * height + 1 by default on a finite
    lattice, and never negative.  No tuple moves that often, as each move
    raises a coordinate, so the scans take no default cap."""
    if cap is None:
        if isinstance(lat, FiniteLattice):
            return 3 * lat.height() + 1
        raise ValueError("a cap is required for non-finite lattices")
    if cap < 0:
        raise ArgumentOutOfRange(f"cap must be >= 0, got {cap}")
    return cap


def _closure(lat, start, step, cap) -> ClosureTrace:
    iterates = [tuple(start)]
    for k in range(cap + 1):
        nxt = tuple(step(lat, iterates[-1]))
        iterates.append(nxt)
        if nxt == iterates[-2]:
            return ClosureTrace(tuple(start), tuple(iterates), k, cap)
    return ClosureTrace(tuple(start), tuple(iterates[:cap + 1]), None, cap)


def closure3(lat, t, cap: Optional[int] = None) -> ClosureTrace:
    """Iterate step3 until fixpoint or cap.  On stabilization the final
    triple is balanced and is the least balanced triple above t."""
    return _closure(lat, t, step3, _cap(lat, cap))


# -- the step map ---------------------------------------------------------

@functools.cache
def _step_plan(arity: int) -> tuple:
    """The step map's pairs a < b in lexicographic order, each with the
    coordinates that avoid it."""
    return tuple((a, b, tuple(i for i in range(arity) if i != a and i != b))
                 for a, b in itertools.combinations(range(arity), 2))


def _step_columns(lat, cols) -> list:
    """The step map for any arity, on one tuple or on columns of ids,
    through lat.meet and lat.join only: coordinate i joins the meets of
    the pairs a < b that avoid i, in lexicographic order of the pairs.

    Each pairwise meet is folded into the coordinates that use it before
    the next is taken, so one meet column is live at a time.
    """
    out = list(cols)
    for a, b, others in _step_plan(len(cols)):
        m = lat.meet(cols[a], cols[b])
        for i in others:
            out[i] = lat.join(out[i], m)
    return out


def _fixpoints(lat, cols, cap: Optional[int] = None):
    """Iterate the step map on a batch of tuples given as columns of ids
    of `lat` (whose meet and join act on id arrays), dropping each tuple
    once it is fixed.

    Round k yields (positions, fixed, current): the batch positions of
    the tuples that stabilize at k, the mask that picks them from the
    tuples still moving, and those tuples' current columns, so
    current[i][fixed] are the closures.  More than `cap` rounds raise
    RankExceedsCap; without a cap the loop runs to the fixpoint, which a
    finite lattice reaches.

    Compaction is by `compress`: on four int32 columns of 100k entries
    with 64% kept it took 1.5 ms against 2.9 ms for boolean subscripts
    (2 cores).  `flatnonzero` and `take` are faster still, but keep int64
    index arrays alive beside the columns.
    """
    pos = np.arange(cols[0].size)
    k = 0
    while pos.size:
        if cap is not None and k > cap:
            raise RankExceedsCap(f"tuples still moving after {cap} steps")
        nxt = _step_columns(lat, cols)
        fixed = nxt[0] == cols[0]
        for a, b in zip(cols[1:], nxt[1:]):
            fixed &= a == b
        yield pos.compress(fixed), fixed, cols
        moving = ~fixed
        pos, cols = pos.compress(moving), [c.compress(moving) for c in nxt]
        del nxt  # live now: these columns and the caller's previous ones
        k += 1


# -- the step table --------------------------------------------------------

def _encode(n: int, cols) -> np.ndarray:
    """Pack coordinate columns (or one entry each) into one int32 key, the
    tuple read as a base-n number, so keys ascend with the lexicographic
    order.  Every caller holds the closure table over n^arity keys, which
    `_key_count` bounds by KEY_CAP."""
    key = np.zeros(np.shape(cols[0]), dtype=np.int32)
    for c in cols:
        key = key * n + c
    return key


def _decode(n: int, arity: int, keys) -> list:
    """The coordinate columns (or entries) of keys made by _encode."""
    cols = []
    for _ in range(arity):
        keys, c = np.divmod(keys, n)
        cols.append(c)
    return cols[::-1]


def _key_count(lat: FiniteLattice, arity: int) -> int:
    """n^arity; SizeLimitExceeded above KEY_CAP, before the closure table
    is allocated."""
    keys = lat.n ** arity
    if keys > KEY_CAP:
        raise SizeLimitExceeded(f"{lat.name or '?'}: tuples of arity {arity} need "
                                f"{lat.n}^{arity} keys, above the key cap {KEY_CAP:,}")
    return keys


def _step_table(lat: FiniteLattice, arity: int) -> np.ndarray:
    """The step map on all n^arity keys, key -> key, int32.  A block of
    first coordinates at a time, about _TABLE_BLOCK keys but at least one
    first coordinate, is stepped as an open mesh, so each pair's meets are
    taken over its two axes only."""
    n = lat.n
    ids = np.arange(n, dtype=np.int32)
    row = n ** (arity - 1)
    rows = max(1, _TABLE_BLOCK // row)
    table = np.empty(n * row, dtype=np.int32)
    for lo in range(0, n, rows):
        mesh = np.ix_(ids[lo:lo + rows], *[ids] * (arity - 1))
        table[lo * row:(lo + rows) * row] = _encode(n, _step_columns(lat, mesh)).ravel()
    return table


def _closures(lat: FiniteLattice, arity: int) -> tuple:
    """Key -> id of its closure under the step map, and key -> its closure
    index (the rounds in which it moves), over all n^arity keys, both int32
    and read-only; the ids number the fixed points, the keys of index 0, in
    key order, as M3[L] and M4[L] do.  Tabulated once per lattice and arity
    and cached on it: the step table is built whole, then each block of
    _TABLE_BLOCK keys follows it by gathers, cur = step[cur], counting the
    keys that move, until none does (a finite lattice has no infinite
    ascending chain).  The spent step table then takes the fixed points'
    ids, all of them before one more gather, as a closure key may lie below
    its key.  The step table is held beside the two results, 12 bytes a
    key; SizeLimitExceeded above KEY_CAP keys comes first."""
    table = lat._closures.get(arity)
    if table is not None:
        return table
    _key_count(lat, arity)
    step = _step_table(lat, arity)
    closed = np.empty_like(step)
    index = np.empty_like(step)
    for lo in range(0, step.size, _TABLE_BLOCK):
        cur = step[lo:lo + _TABLE_BLOCK]
        moves = cur != np.arange(lo, lo + cur.size, dtype=np.int32)
        count = moves.astype(np.int32)
        while moves.any():
            nxt = step.take(cur)
            moves = nxt != cur
            count += moves
            cur = nxt
        closed[lo:lo + cur.size] = cur
        index[lo:lo + cur.size] = count
    ids, first = step, 0
    for lo in range(0, step.size, _TABLE_BLOCK):
        fixed = np.flatnonzero(index[lo:lo + _TABLE_BLOCK] == 0)
        ids[lo + fixed] = np.arange(first, first + fixed.size, dtype=np.int32)
        first += fixed.size
    for lo in range(0, step.size, _TABLE_BLOCK):
        closed[lo:lo + _TABLE_BLOCK] = ids.take(closed[lo:lo + _TABLE_BLOCK])
    for arr in (closed, index):
        arr.setflags(write=False)
    table = lat._closures[arity] = (closed, index)
    return table


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a triple scan: how many triples were examined, how many
    stabilized at each index (histogram keys ascending), and the
    lexicographically first triple attaining the maximum index."""

    triple_count: int
    histogram: dict            # stabilization index -> count, ascending
    max_index: int
    witness: Optional[Triple]

    def failing(self, n: int) -> int:
        """Number of scanned triples whose iteration is still moving at
        index n (i.e. that refute the n-th identity)."""
        return sum(c for i, c in self.histogram.items() if i > n)


def _merge_blocks(parts) -> ScanResult:
    """Sum the parts; the witness is the least of those at the largest index
    (under the trivial group the first in scan order), so the parts may come
    in any order."""
    hist: dict[int, int] = {}
    total = 0
    max_index = 0
    witness = None
    for part in parts:
        total += part.triple_count
        for i, c in part.histogram.items():
            hist[i] = hist.get(i, 0) + c
        if part.witness is not None and (witness is None or part.max_index > max_index
                                         or (part.max_index == max_index
                                             and part.witness < witness)):
            max_index, witness = part.max_index, part.witness
    return ScanResult(total, dict(sorted(hist.items())), max_index, witness)


def _scan_batch(lat, x, y, z, cap, weight=None, label=None):
    """Scan one batch into a ScanResult; triple i counts weight[i] times in
    the histogram.  The witness is the first triple at the batch's largest
    index, or, given the element orbit minima `label`, one whose x has the
    least orbit minimum, with x replaced by that minimum."""
    if x.size == 0:
        return ScanResult(0, {}, 0, None)
    stab = np.zeros(x.size, dtype=np.int32)
    for k, (done, _, _) in enumerate(_fixpoints(lat, [x, y, z], cap)):
        stab[done] = k
    if weight is None:
        counts = np.bincount(stab)
    else:
        counts = np.rint(np.bincount(stab, weights=weight)).astype(np.int64)
    hist = {int(i): int(c) for i, c in enumerate(counts) if c}
    bmax = int(stab.max())
    at = np.flatnonzero(stab == bmax)
    if label is None:
        witness = Triple(int(x[at[0]]), int(y[at[0]]), int(z[at[0]]))
    else:
        keys = label.take(x.take(at))
        i = int(np.argmin(keys))
        witness = Triple(int(keys[i]), int(y[at[i]]), int(z[at[i]]))
    return ScanResult(int(counts.sum()), hist, bmax, witness)


def _triples(py: np.ndarray, pz: np.ndarray, starts: np.ndarray, lo: int, hi: int,
             batch: int, keep: Optional[np.ndarray] = None):
    """The triples (x, y, z), lo <= x < hi, with (y, z) one of the int32
    pairs (py, pz) from starts[x] on, kept only where keep[x, y] & keep[x, z]
    if `keep` is given; in x order and in batches of exactly `batch`, the
    last shorter."""
    xs, by, bz = [], [], []
    size = 0

    def cut_batch():
        return (np.repeat(np.array(xs, dtype=np.int32), [b.size for b in by]),
                np.concatenate(by), np.concatenate(bz))

    for x, s in zip(range(lo, hi), starts[lo:hi].tolist()):
        y, z = py[s:], pz[s:]
        if keep is not None:
            hits = np.flatnonzero(keep[x].take(y) & keep[x].take(z))
            y, z = y.take(hits), z.take(hits)
        while y.size:
            cut = batch - size
            xs.append(x)
            by.append(y[:cut])
            bz.append(z[:cut])
            size += by[-1].size
            y, z = y[cut:], z[cut:]
            if size == batch:
                yield cut_batch()
                xs, by, bz, size = [], [], [], 0
    if size:
        yield cut_batch()


def _scan(lat: FiniteLattice, cap: Optional[int], jobs: int, py: np.ndarray, pz: np.ndarray,
          starts: np.ndarray, keep: Optional[np.ndarray], weight,
          label: Optional[np.ndarray]) -> ScanResult:
    """Scan `_triples(py, pz, starts, 0, lat.n, _BATCH, keep)`, triple
    (x, y, z) counted weight(x, y, z) times (once without `weight`), with
    witnesses by `label` (see `_scan_batch`).  With jobs > 1 and more than
    one batch, min(jobs, os.cpu_count()) threads each take the next batch
    from the one generator, under a lock, when they finish their last (a
    smaller scan costs less than starting them).  The merge does not depend
    on the order of the parts, so the result is the same for any job count."""
    # weights are taken while the previous batch is still held: taken
    # after its release, the M3[M6] full scan had twice the minor page
    # faults (42k against 20k a scan) and ran up to 15% longer
    batches = ((x, y, z, None if weight is None else weight(x, y, z))
               for x, y, z in _triples(py, pz, starts, 0, lat.n, _BATCH, keep))

    def scan(batches) -> ScanResult:
        return _merge_blocks(_scan_batch(lat, x, y, z, cap, w, label)
                             for x, y, z, w in batches)

    threads = min(jobs, os.cpu_count() or 1)
    if threads == 1:
        return scan(batches)
    head = list(itertools.islice(batches, 2))
    if len(head) < 2:
        return scan(head)
    lock = threading.Lock()

    def take():
        while True:
            with lock:
                batch = head.pop(0) if head else next(batches, None)
            if batch is None:
                return
            yield batch

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return _merge_blocks(pool.map(scan, [take() for _ in range(threads)]))


# -- the orbit scan -------------------------------------------------------
#
# The step map commutes with permuting the coordinates and with every
# automorphism of L, so the triples in one orbit of S3 x G, for a group G of
# automorphisms, stabilize at the same index.  Orbits come from the
# generators by min-label propagation (A. Seress, Permutation Group
# Algorithms, CUP 2003, for orbits from generators).

def _orbit_minima(perms: list, size: int) -> np.ndarray:
    """label[i] = the least point of i's orbit under the group the
    permutations of range(size) generate: each point takes the least label
    among itself and its images, then labels jump to their labels' labels,
    until nothing moves."""
    label = np.arange(size, dtype=np.int32)
    while True:
        old = label
        for p in perms:
            label = np.minimum(label, label.take(p))
        label = label.take(label)
        if np.array_equal(label, old):
            return label


def _orbit_pairs(lat: FiniteLattice, gens: np.ndarray, label: Optional[np.ndarray],
                 keep: Optional[np.ndarray]):
    """The least pair (y, z), y <= z, of each orbit of pairs (for antichains,
    of those that `keep` holds) under the group of the generators, sorted
    stably by their least label; each orbit's size; and each x's start, the
    first pair whose labels are both >= label[x].  With label None, the
    trivial group's, the pairs are all in row-major order and sorted so."""
    n = lat.n
    py, pz = (a.astype(np.int32) for a in
              (np.triu_indices(n) if keep is None else np.nonzero(np.triu(keep))))
    if label is None:
        return py, pz, None, np.searchsorted(py, np.arange(n))
    at = np.empty(n * n, dtype=np.int32)  # pair key y * n + z -> its position
    at[py * n + pz] = np.arange(py.size, dtype=np.int32)
    pair = _orbit_minima([at.take(np.minimum(a, b) * n + np.maximum(a, b))
                          for a, b in ((g.take(py), g.take(pz)) for g in gens)], py.size)
    reps = np.flatnonzero(pair == np.arange(py.size))
    key = np.minimum(label.take(py[reps]), label.take(pz[reps]))
    order = np.argsort(key, kind="stable")
    reps = reps[order]
    return py[reps], pz[reps], np.bincount(pair)[reps], np.searchsorted(key[order], label)


# 6 * (1 + [y != z]) / k by 3 * [y != z] + k - 1, k the entries of a scanned
# (x, y, z) that carry x's label: twice the triples it stands for, per pair
_WEIGHT = np.array([6.0, 3.0, 2.0, 12.0, 6.0, 4.0])


def _orbit_weight(n: int, label: Optional[np.ndarray], py: np.ndarray, pz: np.ndarray, size):
    """The weight of each triple of a batch: _WEIGHT's times its pair's
    orbit size; label None stands for the ids, size None for orbits of one
    pair each."""
    if size is not None:
        table = np.zeros(n * n)
        table[py * n + pz] = size

    def weight(x, y, z):
        lx, ly, lz = (x, y, z) if label is None else (label.take(c) for c in (x, y, z))
        code = (y != z) * np.uint8(3)
        code += ly == lx
        code += lz == lx
        w = _WEIGHT.take(code)
        return w if size is None else w * table.take(y * np.intp(n) + z)

    return weight


def _orbit_scan(lat: FiniteLattice, cap: Optional[int], jobs: int,
                keep: Optional[np.ndarray], gens: np.ndarray) -> ScanResult:
    """The scan over one triple of each orbit of S3 x G, G the group the
    automorphisms `gens` generate (trivial when there are none): the full
    scan, or, given the incomparability matrix `keep`, the antichain scan.

    A label is an element's orbit minimum under G (None under the trivial
    group: the ids).  x runs over the elements whose label is at most both
    of its pair's (`_orbit_pairs`).  Each triple is reached by moving an
    entry of least label to the front and mapping the other two to their
    pair's representative, k ways if k entries carry that label; so
    (x, y, z) stands for 3 / k times the ordered pairs in its pair's orbit
    of the n^3 triples, and an antichain for 6 of them.  These weights,
    doubled (`_orbit_weight`), must sum to multiples of 2 and 12
    (VerificationFailed).  Under the trivial group the scan steps the sorted
    triples x <= y <= z, weighted by their orbits under permuting the
    coordinates, or the antichains x < y < z, once each.

    The witness is the lexicographically first triple at the largest index
    m: under the trivial group the first scanned.  Else let x* be the least
    label of an x scanned at m.  The least-label entry of a triple at m is
    in the orbit of such an x, so every entry of it is >= x*, and x* is an
    entry of an image of a scanned triple at m; so the first triple at m is
    in the sorted row of x*, which is scanned again.
    """
    n = lat.n
    label = _orbit_minima(list(gens), n) if gens.size else None
    py, pz, size, starts = _orbit_pairs(lat, gens, label, keep)
    if label is None and keep is not None:  # the trivial group's antichains count once each
        return _scan(lat, cap, jobs, py, pz, starts, keep, None, None)
    scale = 2 if keep is None else 12
    res = _scan(lat, cap, jobs, py, pz, starts, keep, _orbit_weight(n, label, py, pz, size), label)
    if any(c % scale for c in res.histogram.values()):
        raise VerificationFailed(f"orbit-weighted counts are not multiples of {scale}")
    witness = res.witness
    if witness is not None and label is not None:
        py, pz, _, starts = _orbit_pairs(lat, gens, None, keep)
        row = _merge_blocks(_scan_batch(lat, x, y, z, cap) for x, y, z in _triples(
            py, pz, starts, witness.x, witness.x + 1, _BATCH, keep))
        if row.max_index != res.max_index:
            raise VerificationFailed(f"no triple at index {res.max_index} in row {witness.x}")
        witness = row.witness
    hist = {i: c // scale for i, c in res.histogram.items()}
    return ScanResult(res.triple_count // scale, hist, res.max_index, witness)


# -- the table route ------------------------------------------------------

def _table_scan(lat: FiniteLattice, cap: Optional[int], antichains: bool) -> ScanResult:
    """The scan read off the closure table of all n^3 triples
    (`_closures`): the histogram counts the closure indices of all keys, or
    of the antichain keys x < y < z; keys ascend lexicographically, so the
    witness is the first key at the largest index; RankExceedsCap when that
    index is above a cap."""
    n = lat.n
    index = _closures(lat, 3)[1]
    keys = None
    if antichains:
        u = np.triu(~lat.leq & ~lat.leq.T, k=1)
        keys = np.flatnonzero(u[:, :, None] & u[:, None, :] & u[None, :, :])
        index = index.take(keys)
    if index.size == 0:
        return ScanResult(0, {}, 0, None)
    counts = np.bincount(index)
    top = counts.size - 1
    if cap is not None and top > cap:
        raise RankExceedsCap(f"tuples still moving after {cap} steps")
    first = int(np.argmax(index))
    key = first if keys is None else int(keys[first])
    witness = Triple(*(int(c) for c in _decode(n, 3, key)))
    hist = {i: c for i, c in enumerate(counts.tolist()) if c}
    return ScanResult(int(index.size), hist, top, witness)


def _scan_route(lat: FiniteLattice, cap: Optional[int], jobs: int,
                antichains: bool) -> ScanResult:
    """The table scan up to _TABLE_SCAN_KEYS triples; above it the orbit
    scan, under Aut(L) when the scan's sorted triples need more than one
    batch, else under the trivial group, computing no automorphisms: the
    pairs y <= z times (n + 2) / 3 count the triples x <= y <= z, and the
    incomparable pairs times that bound the antichains x < y < z."""
    if jobs < 1:
        raise ArgumentOutOfRange(f"jobs must be >= 1, got {jobs}")
    cap = None if cap is None else _cap(lat, cap)
    n = lat.n
    if n ** 3 <= _TABLE_SCAN_KEYS:
        return _table_scan(lat, cap, antichains)
    keep = ~lat.leq & ~lat.leq.T if antichains else None
    pairs = n * (n + 1) // 2 if keep is None else np.count_nonzero(keep) // 2
    if pairs * (n + 2) // 3 > _BATCH:
        gens = lat.automorphisms().generators
    else:
        gens = np.empty((0, n), dtype=np.int32)
    return _orbit_scan(lat, cap, jobs, keep, gens)


def full_triple_scan(lat: FiniteLattice, cap: Optional[int] = None,
                     jobs: int = 1) -> ScanResult:
    """Stabilization indices of all |L|^3 triples.

    On small lattices they are read off the closure table (`_table_scan`).
    On larger ones, as the step map commutes with permuting coordinates and
    with automorphisms, one triple of each orbit of S3 x G is iterated and
    counted with its orbit's size (`_orbit_scan`): G is Aut(L) on large
    lattices, else trivial, when the triples iterated are the sorted
    x <= y <= z.  A triple at the maximum index has its sorted permutation
    there too, and that one is lexicographically no later, so the witness
    is a sorted triple.
    """
    return _scan_route(lat, cap, jobs, antichains=False)


def antichain_rank_scan(lat: FiniteLattice, cap: Optional[int] = None,
                        jobs: int = 1) -> ScanResult:
    """Scan every 3-element antichain {x,y,z} (as x<y<z) and record its
    stabilization index: on small lattices read off the closure table
    (`_table_scan`); on larger ones one antichain of each orbit of S3 x G
    (`_orbit_scan`), G as in `full_triple_scan`, which under the trivial
    group are the x < y < z themselves."""
    return _scan_route(lat, cap, jobs, antichains=True)


# -- the modularity rank --------------------------------------------------

@dataclass(frozen=True)
class RankReport:
    rank: int
    witness: Triple                 # the lexicographically first slowest triple
    witness_names: tuple
    histogram: dict
    triple_count: int


def rank_report(lat: FiniteLattice, cap: Optional[int] = None,
                jobs: int = 1) -> RankReport:
    """Modularity rank with diagnostics, from the full scan of all n^3
    triples: its histogram, triple count and witness, and the rank
    max(1, its largest index), which `modularity_rank` gives too."""
    res = full_triple_scan(lat, cap=cap, jobs=jobs)
    names = tuple(lat.names[e] for e in res.witness)
    return RankReport(max(1, res.max_index), res.witness, names, res.histogram,
                      res.triple_count)


def modularity_rank(lat: FiniteLattice, cap: Optional[int] = None) -> int:
    """Least n such that every triple's iteration stabilizes by index n: the
    antichain scan's largest index when at least 2 (a triple with two
    comparable entries stabilizes by index 2), else 1 or 2 as L is modular
    (gamma_1) or not.  RankExceedsCap where the full scan raises it."""
    index = antichain_rank_scan(lat, cap=cap).max_index
    if index >= 2:
        return index
    rank = 1 if is_modular(lat) else 2
    if cap is not None and min(rank, lat.n - 1) > cap:  # C_1's triples never move
        raise RankExceedsCap(f"tuples still moving after {cap} steps")
    return rank
