"""Balanced-triple and balanced-quadruple step maps, closure iteration,
and the modularity-rank engine.

The step map sends <x,y,z> to <x v (y^z), y v (x^z), z v (x^y)>; its
fixed points are exactly the balanced triples (all pairwise meets equal),
and iterating it computes the least balanced triple above the input.  A
lattice satisfies the n-th modularity identity exactly when every
triple's iteration stabilizes by index n; the modularity rank is the
least such n.

The scalar step3/step4 and closure3/closure4 serve any lattice object;
on finite lattices one vectorized kernel (`_step_columns`) and one
fixpoint loop (`_fixpoints`), both arity-generic, run the rank scans here
and the join closures of `construct`.  Both rank scans run through one
triple generator (`_triples`) and one scan loop (`_scan`), which also splits
them over threads.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import FiniteLattice
from .errors import ArgumentOutOfRange, RankExceedsCap

# Triples per batch of the full and the antichain scan.  A batch's working
# set is some 66 bytes a triple, and each scan thread holds one: the M3[M6]
# full scan peaks at 33 MiB on one thread and 64 MiB at jobs=2, the M3[M7]
# antichain scan at 8 and 15 MiB (tracemalloc, 2-core Xeon).  At 100,000
# the M3[M6] full scan peaked at 7 MiB and ran faster (0.17-0.24 s against
# 0.29-0.32 s); the sizes stay apart until `plane` is measured with one.
_BLOCK_ENTRIES = 500_000
_ANTICHAIN_BATCH = 100_000


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
    x, y, z = t
    return Triple(lat.join(x, lat.meet(y, z)),
                  lat.join(y, lat.meet(x, z)),
                  lat.join(z, lat.meet(x, y)))


def step4(lat, q) -> Quadruple:
    """Each coordinate joins with all pairwise meets of the other three."""
    out = []
    for i in range(4):
        rest = [q[k] for k in range(4) if k != i]
        v = q[i]
        for a in range(3):
            for b in range(a + 1, 3):
                v = lat.join(v, lat.meet(rest[a], rest[b]))
        out.append(v)
    return Quadruple(*out)


def _cap(lat, cap: Optional[int]) -> int:
    """The step cap: 3 * height + 1 by default on a finite lattice, and
    never negative."""
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


def closure4(lat, q, cap: Optional[int] = None) -> ClosureTrace:
    return _closure(lat, q, step4, _cap(lat, cap))


# -- the vectorized step map ----------------------------------------------

def _step_columns(meet: np.ndarray, join: np.ndarray, cols) -> list:
    """The step map on columns of element ids, for any arity: coordinate i
    joins the meets of the pairs that avoid i.

    Each pairwise meet is folded into the coordinates that use it before
    the next is taken, so one meet column is live at a time.  The tables
    are read by 1-D `take`s at a*n + b: 2-D fancy indexing of the same
    entries runs no faster on two threads than on one.
    """
    n = meet.shape[0]
    mf, jf = meet.ravel(), join.ravel()
    out = list(cols)
    for a, b in itertools.combinations(range(len(cols)), 2):
        m = mf.take(cols[a] * n + cols[b])
        for i in range(len(cols)):
            if i != a and i != b:
                out[i] = jf.take(out[i] * n + m)
    return out


def _fixpoints(meet: np.ndarray, join: np.ndarray, cols,
               cap: Optional[int] = None):
    """Iterate the step map on a batch of tuples given as columns,
    dropping each tuple once it is fixed.

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
        nxt = _step_columns(meet, join, cols)
        fixed = nxt[0] == cols[0]
        for a, b in zip(cols[1:], nxt[1:]):
            fixed &= a == b
        yield pos.compress(fixed), fixed, cols
        moving = ~fixed
        pos, cols = pos.compress(moving), [c.compress(moving) for c in nxt]
        del nxt  # live now: these columns and the caller's previous ones
        k += 1


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
    hist: dict[int, int] = {}
    total = 0
    max_index = 0
    witness = None
    for part in parts:
        total += part.triple_count
        for i, c in part.histogram.items():
            hist[i] = hist.get(i, 0) + c
        if part.witness is not None and (witness is None or part.max_index > max_index):
            max_index, witness = part.max_index, part.witness
    return ScanResult(total, dict(sorted(hist.items())), max_index, witness)


def _scan_batch(lat, x, y, z, cap, weight=None):
    """Scan one batch into a ScanResult; triple i counts weight[i] times in
    the histogram."""
    if x.size == 0:
        return ScanResult(0, {}, 0, None)
    stab = np.zeros(x.size, dtype=np.int32)
    for k, (done, _, _) in enumerate(
            _fixpoints(lat.meet_table, lat.join_table, [x, y, z], cap)):
        stab[done] = k
    if weight is None:
        counts = np.bincount(stab)
    else:
        counts = np.rint(np.bincount(stab, weights=weight)).astype(np.int64)
    hist = {int(i): int(c) for i, c in enumerate(counts) if c}
    bmax = int(stab.max())
    first = int(np.flatnonzero(stab == bmax)[0])
    witness = Triple(int(x[first]), int(y[first]), int(z[first]))
    return ScanResult(int(counts.sum()), hist, bmax, witness)


# orbit sizes under coordinate permutations, by the number of equalities
# x == y, y == z of a sorted triple
_ORBIT_SIZE = np.array([6.0, 3.0, 1.0])


def _orbit_sizes(x, y, z):
    return _ORBIT_SIZE[(x == y).astype(np.intp) + (y == z)]


def _triples(py: np.ndarray, pz: np.ndarray, lo: int, hi: int, batch: int,
             keep: Optional[np.ndarray] = None):
    """The triples (x, y, z), lo <= x < hi, with (y, z) one of the pairs
    (py, pz) with y >= x (int32 and row-major, so those of x are a suffix),
    kept only where keep[x, y] & keep[x, z] if `keep` is given; in
    lexicographic order and in batches of exactly `batch`, the last shorter."""
    starts = np.searchsorted(py, np.arange(lo, hi)).tolist()
    xs, by, bz = [], [], []
    size = 0

    def cut_batch():
        return (np.repeat(np.array(xs, dtype=np.int32), [b.size for b in by]),
                np.concatenate(by), np.concatenate(bz))

    for x, s in zip(range(lo, hi), starts):
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


def _scan(lat: FiniteLattice, cap: Optional[int], jobs: int, py: np.ndarray,
          pz: np.ndarray, per_x, batch: int, keep: Optional[np.ndarray] = None,
          weight=None) -> ScanResult:
    """Scan `_triples(py, pz, ..., batch, keep)`, triple (x, y, z) counted
    weight(x, y, z) times (once without `weight`), in `jobs` parts of the x
    range with about equal triple counts by per_x() (asked only then), on
    at most os.cpu_count() threads; the parts merge in x order, so the
    result is the same for any job count."""
    if jobs < 1:
        raise ArgumentOutOfRange(f"jobs must be >= 1, got {jobs}")
    cap = _cap(lat, cap)

    def scan_range(lo: int, hi: int) -> ScanResult:
        # weights are taken while the previous batch is still held: taken
        # after its release, the M3[M6] full scan had twice the minor page
        # faults (42k against 20k a scan) and ran up to 15% longer
        batches = ((x, y, z, None if weight is None else weight(x, y, z))
                   for x, y, z in _triples(py, pz, lo, hi, batch, keep))
        return _merge_blocks(_scan_batch(lat, x, y, z, cap, w) for x, y, z, w in batches)

    if jobs == 1 or lat.n < 2 * jobs:
        return scan_range(0, lat.n)
    counts = per_x()
    upto = np.cumsum(counts)
    # b_i: the first x with at least i/jobs of all triples before it
    bounds = np.searchsorted(upto - counts, np.arange(jobs + 1) * upto[-1] / jobs)
    bounds[0], bounds[-1] = 0, lat.n
    with ThreadPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
        return _merge_blocks(pool.map(scan_range, bounds[:-1].tolist(), bounds[1:].tolist()))


def full_triple_scan(lat: FiniteLattice, cap: Optional[int] = None,
                     jobs: int = 1) -> ScanResult:
    """Stabilization indices of all |L|^3 triples.

    The step map commutes with permuting coordinates, so a triple's index
    is that of its sorted permutation: only x <= y <= z are iterated, each
    counted with its orbit size.  A triple at the maximum index has its
    sorted permutation there too, and that one is lexicographically no
    later, so the first hit among sorted triples is the first of all.
    """
    n = lat.n
    py, pz = (a.astype(np.int32) for a in np.triu_indices(n))
    x = np.arange(n)
    return _scan(lat, cap, jobs, py, pz, lambda: (n - x) * (n - x + 1) // 2,
                 _BLOCK_ENTRIES, weight=_orbit_sizes)


def antichain_rank_scan(lat: FiniteLattice, cap: Optional[int] = None,
                        jobs: int = 1) -> ScanResult:
    """Scan every 3-element antichain {x,y,z} (as x<y<z) and record its
    stabilization index: with U the strictly upper incomparability matrix,
    the pairs y < z of U that U[x, y] & U[x, z] keeps."""
    u = np.triu(~lat.leq & ~lat.leq.T, k=1)
    py, pz = (a.astype(np.int32) for a in np.nonzero(u))

    def per_x():
        # (U U^T)[x, y] counts the z > y incomparable to both x and y, so
        # x has sum_y U[x, y] (U U^T)[x, y] antichains (a float32 BLAS
        # product, exact while n < 2**24)
        f = u.astype(np.float32)
        return (f * (f @ f.T)).sum(axis=1, dtype=np.float64)

    return _scan(lat, cap, jobs, py, pz, per_x, _ANTICHAIN_BATCH, keep=u)


# -- the modularity rank --------------------------------------------------

@dataclass(frozen=True)
class RankReport:
    rank: int
    witness: Optional[Triple]       # a slowest triple (None only on C_1)
    witness_names: Optional[tuple]
    histogram: dict
    triple_count: int


def rank_report(lat: FiniteLattice, cap: Optional[int] = None,
                antichains_only: bool = False, jobs: int = 1) -> RankReport:
    """Modularity rank with diagnostics.

    The fast path scans only antichains; that decides the rank whenever it
    is at least 3 (triples with two comparable entries stabilize by index
    2), and otherwise falls back to a full scan to separate rank 1 from 2.
    """
    if antichains_only:
        res = antichain_rank_scan(lat, cap=cap, jobs=jobs)
        if res.max_index < 3:
            res = full_triple_scan(lat, cap=cap, jobs=jobs)
    else:
        res = full_triple_scan(lat, cap=cap, jobs=jobs)
    rank = max(1, res.max_index)
    wit = res.witness
    names = tuple(lat.names[e] for e in wit) if wit is not None else None
    return RankReport(rank, wit, names, res.histogram, res.triple_count)


def modularity_rank(lat: FiniteLattice, cap: Optional[int] = None) -> int:
    """Least n such that every triple's iteration stabilizes by index n."""
    return rank_report(lat, cap=cap).rank
