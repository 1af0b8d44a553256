"""Host-speed correction for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
up to 40% over seconds to minutes: a fixed pure-Python loop shows
the drift in both wall and CPU time, so a run cannot average it away. The
drift moves antimorph and any other pure-Python work together, so the
benchmark times a fixed reference chunk of its own (`chunk`) interleaved
with the program's work and reports each timing at the nominal speed:

    corrected seconds = work seconds * NOMINAL_S * mean(1 / nearby chunks)

1 / chunk seconds is the host's speed at the moment of the chunk, and the
chunks are taken at even steps of wall time, so their mean is the host's
mean speed over the work: the work done is that speed times the seconds it
took. (A median of chunk times would misread a host that alternates
between fast and slow spells.)

`Sampler` runs one chunk from a SIGALRM handler every PERIOD_S of wall time
while the program works, and keeps the time spent in the handler off the
work clock (`clock`), so timings exclude the sampling. `factor(t0, t1)`
uses the chunks taken inside [t0, t1], or the last MIN_SAMPLES before t1
when the interval holds fewer. A program change slows or speeds the
program's work, never the chunk, so it shows in full in the corrected
figures; the chunk runs with the garbage collector off, so the program's
heap does not slow it. Its data (about 4 MB) counts in the peak RSS of the
process that samples.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

# the time of one chunk on the reference host (2-vCPU Xeon VM, Python
# 3.11.7) at its usual speed; corrected timings are seconds at that speed
NOMINAL_S = 0.0045
PERIOD_S = 0.1
MIN_SAMPLES = 9

# The chunk mixes four kinds of pure-Python work that antimorph is made of,
# each about a quarter of it: building tuples (composing permutations),
# indexing nested lists (a Cayley-table check), method calls that create
# small objects, and lookups in a dict of a few MB. A host's neighbours slow
# work with a large working set more than work that stays in cache, and
# antimorph's working set is large, so a chunk without the big dict
# undercorrects (cli-queries most); with it, the chunk follows the drift of
# all three workloads more closely.
_PERMS = [tuple((i * k + j) % 12 for i in range(12)) for k in (1, 5, 7, 11) for j in range(3)]
_TABLE = [[(a + b) % 12 for b in range(12)] for a in range(12)]
_LOOKUP = {(i, i * 7 % 13, i % 5): [i] for i in range(20000)}
_KEYS = [(i, i * 7 % 13, i % 5) for i in random.Random(0).sample(range(20000), 750)]


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def key(self):
        return (self.a, self.b)


class _Node:
    def __init__(self, a, b):
        self.a, self.b = a, b

    def mul(self, other):
        return _Node(self.a * other.a % 13, (self.b + other.b) % 7)

    def key(self):
        return (self.a, self.b)


_NODES = [_Node(a, b) for a in range(1, 13) for b in range(3)]


def _work() -> int:
    seen = {}
    for _ in range(4):
        for p in _PERMS:
            for q in _PERMS:
                r = tuple(p[i] for i in q)
                seen[r] = seen.get(r, 0) + 1
    for x in range(12):
        img = [(x * a) % 12 for a in range(12)]
        for y in range(12):
            seen[x, y] = all(img[_TABLE[a][b]] == _TABLE[img[a]][img[b]]
                             for a in range(12) for b in range(0, 12, 3))
    for x in _NODES * 3:
        for y in _NODES[::3]:
            k = x.mul(y).key()
            seen[k] = seen.get(k, 0) + 1
    for k in _KEYS:
        o = _Pair(k, _LOOKUP[k][0])
        seen[o.key()] = o
    return len(seen)


def chunk() -> float:
    """Seconds taken by one run of the fixed reference work."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    _work()
    seconds = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return seconds


def block(n: int = MIN_SAMPLES) -> list:
    """n chunk timings taken back to back."""
    return [chunk() for _ in range(n)]


def factor_of(samples: list) -> float:
    """The mean host speed over `samples`, relative to the nominal speed."""
    return NOMINAL_S * statistics.fmean(1 / s for s in samples)


class Sampler:
    """Chunks taken every PERIOD_S while the program works."""

    def __init__(self):
        self.times = []     # work-clock time of each chunk
        self.samples = []   # seconds of each chunk
        self.spent = 0.0    # wall seconds spent sampling

    def clock(self) -> float:
        """Wall seconds minus the seconds spent sampling."""
        return time.perf_counter() - self.spent

    def take(self) -> None:
        t0 = time.perf_counter()
        self.times.append(t0 - self.spent)
        self.samples.append(chunk())
        self.spent += time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self.take()

    def start(self) -> None:
        """Take MIN_SAMPLES chunks now, then one every PERIOD_S."""
        for _ in range(MIN_SAMPLES):
            self.take()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """factor_of the chunks inside [t0, t1] (work clock), or of the last
        MIN_SAMPLES chunks before t1 when it holds fewer."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < MIN_SAMPLES:
            lo = max(0, hi - MIN_SAMPLES)
        return factor_of(self.samples[lo:hi])
