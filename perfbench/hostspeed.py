"""Host-speed probe: a fixed computation timed while the program runs.

The benchmark runs on shared machines whose speed drifts by a third or more
over seconds to minutes (neighbours on the same cores), while process CPU
time tracks wall time: the host runs slower, the process is not
descheduled.  Raw per-run medians then spread by 25-30% between runs of the
same code.

The probe is a frozen pure-Python computation in the style of the program's
hot paths (exact rational row reduction).  It does not use pdivgen, so a
change to the program does not change it.  Timed while the program runs,
it tracks the host's momentary speed, and the benchmark reports each time
scaled to a reference speed:

    adjusted = measured * REFERENCE_S / probe time while measuring

``REFERENCE_S`` is the probe's time on a free core of the machine the
benchmark was sized on (2-vCPU Intel Xeon, Python 3.11).  Raw times are
kept in every record.
"""

import random
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0018
# seconds of wall time between two probes while solving
INTERVAL_S = 0.1
# probes timed on each side of a set-up, to adjust set-up time
SETUP_REPEATS = 10

_rng = random.Random(5)
_MATRIX = tuple(tuple(_rng.randint(-9, 9) for _ in range(10)) for _ in range(8))


def _rref(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    m, n = len(a), len(a[0])
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return a


def probe(repeats=1):
    """Mean seconds the fixed computation takes now."""
    start = time.perf_counter()
    for _ in range(repeats):
        _rref(_MATRIX)
    return (time.perf_counter() - start) / repeats


def factor(probe_s):
    """Scale for a time measured while the probe took ``probe_s``."""
    return REFERENCE_S / probe_s


class Sampler:
    """Runs the probe every INTERVAL_S seconds from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so the probe
    samples the host's speed during a long solve, not only around it.
    ``samples`` holds the probe times; ``spent`` is the wall time the
    handler took, which callers subtract from the solve they timed.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start

    def mean_since(self, first):
        """Mean probe time of the samples from index ``first`` on."""
        recent = self.samples[first:]
        return statistics.fmean(recent) if recent else probe()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
