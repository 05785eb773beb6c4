"""Host speed sampling: a fixed reference computation, timed while the
benchmark runs.

The benchmark runs on a few cores of a shared host whose speed drifts: by
±20% between consecutive seconds and by ±25% over minutes, as other tenants
load it.  A `Sampler` interrupts the run every EVERY_S seconds (SIGALRM, so
the probe runs in the benchmark's own thread, between two bytecodes of
whatever job is running) and times one call of `kernel`, a fixed
computation that does not use latmod: union-find passes over the rows of
an integer table and set lookups of tuples, the kind of interpreter work
latmod's congruence, closure and parsing loops do.  The probe's time moves
with the host's speed and with nothing in the program under test.

`Sampler.scaled(t0, t1)` is the time from t0 to t1, without the probes in
it, rescaled piece by piece to the reference speed: each stretch between
two probes is multiplied by REFERENCE_S over the local probe time (the
median of the probes around it).  A program that does the same work
reports the same scaled time whether the host was fast or slow.
"""

from __future__ import annotations

import bisect
import random
import signal
import threading
import time
from statistics import median

EVERY_S = 0.02     # time between two probes
TABLE_N = 96       # the kernel's table: TABLE_N x TABLE_N ints
ROWS = 4           # table rows one kernel call visits
NEIGHBOURS = 2     # probes on each side of a stretch that set its local speed
# The median probe time on a 2-vCPU KVM guest of an Intel Xeon (family 6,
# model 143) while it was quiet: at that speed scaled seconds equal
# measured seconds.
REFERENCE_S = 0.00032

_rng = random.Random(20051)
TABLE = [[_rng.randrange(TABLE_N) for _ in range(TABLE_N)] for _ in range(TABLE_N)]


def kernel() -> int:
    """One call of the reference computation; returns the number of
    distinct root pairs it met."""
    parent = list(range(TABLE_N))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    seen = set()
    for u in range(ROWS):
        for c, v in enumerate(TABLE[u]):
            a, b = find(v), find(c)
            if a != b:
                parent[max(a, b)] = min(a, b)
            seen.add((a, b))
    return len(seen)


class Sampler:
    """Probes taken every EVERY_S seconds between `start()` and `stop()`.

    A probe is skipped while other threads run: it would then time their
    competition for the interpreter, not the host.  So is a signal that
    arrives during a probe, which would nest in it."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.cpu_times: list[float] = []
        self._old = None
        self._busy = False

    def _probe(self, signum, frame):
        if self._busy or threading.active_count() > 1:
            return
        self._busy = True
        t0, c0 = time.perf_counter(), time.process_time()
        kernel()
        end = time.perf_counter()
        self.cpu_times.append(time.process_time() - c0)
        self.starts.append(t0)
        self.times.append(end - t0)
        self._busy = False

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def probed(self, t0: float, t1: float) -> tuple[float, float]:
        """Wall and CPU time of the probes taken from t0 to t1."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return sum(self.times[i:j]), sum(self.cpu_times[i:j])

    def summary(self) -> dict:
        return {"count": len(self.times), "every_s": EVERY_S,
                "median_ms": 1000 * median(self.times) if self.times else None,
                "reference_ms": 1000 * REFERENCE_S}

    def _local(self, i: int) -> float:
        lo, hi = max(0, i - NEIGHBOURS), min(len(self.times), i + NEIGHBOURS)
        return median(self.times[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1, probes left out, at the reference speed."""
        if not self.times:
            raise RuntimeError("no probe was taken: cannot scale to the reference speed")
        i = bisect.bisect_left(self.starts, t0)
        out, at = 0.0, t0
        while i < len(self.starts) and self.starts[i] < t1:
            out += (self.starts[i] - at) * REFERENCE_S / self._local(i)
            at = self.starts[i] + self.times[i]
            i += 1
        if at < t1:
            out += (t1 - at) * REFERENCE_S / self._local(i)
        return out
