"""A fixed chunk of pure-Python work that gauges the machine's current speed.

On a shared host, other tenants change how fast this process runs, by up to
2x, for seconds to minutes at a time: CPU time grows with wall time, so the
process is slowed, not descheduled. Such a slowdown affects this chunk as it
affects the checker. While a session runs, ``Gauge`` runs a chunk every
``EVERY_S`` seconds from a ``SIGALRM`` handler, inside requests as well as
between them. A request's time, less the chunks run inside it, is scaled by
``REF_S`` over the mean time of the chunks from the last one before it to
the first one after it. The benchmark's times are therefore in reference
seconds: the time the request would take at the speed at which one chunk
takes ``REF_S``.

The chunk touches nothing of ``rhpwn``, so a change to the checker changes
its scaled times exactly as it changes its raw ones. The garbage collector is
off while the chunk runs, so the size of the checker's heap does not change
the chunk's time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from contextlib import nullcontext
from fractions import Fraction

# Wall seconds of one chunk() on a shared 2-core virtual machine (Intel Xeon,
# CPython 3.11) while no other tenant slowed it.
REF_S = 0.008

# Seconds between the end of one chunk and the start of the next: the host's
# speed holds for seconds at a time.
EVERY_S = 0.1

_ROUNDS = 4
_ITEMS = 3000


def _kernel() -> int:
    table: dict = {}
    acc = Fraction(0)
    for i in range(_ITEMS):
        key = (i % 97, i % 13, "t")
        table[key] = table.get(key, 0) + i
        if i % 10 == 0:
            acc += Fraction(i, 2 ** (i % 7))
    total = 0
    for key, value in sorted(table.items()):
        total += hash(key) ^ value
    return total + len(f"{acc}")


def chunk() -> tuple[float, float]:
    """Run the fixed work once; return its (wall, CPU) seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        for _ in range(_ROUNDS):
            _kernel()
        return time.perf_counter() - t0, time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Run ``chunk()`` at the start, every ``EVERY_S`` seconds, and at the end.

    ``span`` wraps each chunk, so that a tracer can leave its time out of the
    span the chunk interrupted.
    """

    def __init__(self, span=None):
        self.starts: list[float] = []
        self.chunks: list[tuple[float, float]] = []
        self._span = span or (lambda: nullcontext())
        self._active = False

    def _chunk(self) -> None:
        with self._span():
            start = time.perf_counter()
            self.chunks.append(chunk())
        self.starts.append(start)

    def _tick(self, *_signal) -> None:
        if self._active:
            self._chunk()
            signal.setitimer(signal.ITIMER_REAL, EVERY_S)

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        self._tick()
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._chunk()

    def scale(self, t0: float, t1: float) -> tuple[float, float, float, float]:
        """For a request timed from ``t0`` to ``t1``: the (wall, CPU) seconds
        of the chunks run inside it, and its (wall, CPU) scale factors."""
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_left(self.starts, t1)
        inside = self.chunks[first:last]
        around = self.chunks[first - 1 : last + 1]
        return (
            sum(w for w, _ in inside),
            sum(c for _, c in inside),
            REF_S * len(around) / sum(w for w, _ in around),
            REF_S * len(around) / sum(c for _, c in around),
        )
