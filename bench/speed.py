"""A machine-speed probe and a clock that scales time to a reference speed.

The benchmark runs on shared hosts.  On the 2-vCPU VM it was written on,
the same 100-episode training took from 1.16 s to 1.47 s in twelve repeats
in one process, and the unscaled training rate of 10-second runs had an
inter-quartile range of 17-35 % of its median across runs.  A probe doing
the same kind of work (float updates in a dict keyed by tuples) slows down
with the host, so every segment of timed work is followed by one probe and
the segment's time is multiplied by ``PROBE_REF_S / probe time``.  Scaled
times read as seconds on a machine whose probe takes ``PROBE_REF_S``, about
what it takes on that VM; their spread across runs fell to 2-8 %.  The
probe's own time is never part of a segment.  The clock keeps the unscaled
(raw) time too, so that every scaled figure has a raw counterpart.

Segments and probes are timed in CPU seconds of the process (``CLOCK``),
not in wall seconds.  The VM's vCPUs are at times taken away by the host
(steal time: about 12 % of the VM's CPU time in a 10-second sample taken
during a run).  A segment that loses its vCPU for a while grows in wall
time while the 0.3 ms probe after it rarely does, so the probe cannot
correct it; the CPU clock does not count that time.  The program runs in
one process and one thread, so its CPU time is its work; a change that moved
work into another process would hide it from this clock.
"""
from __future__ import annotations

import time

PROBE_REF_S = 0.00035
CLOCK = time.process_time

_KEYS = tuple((i % 7, (i * 3) % 11, float(i)) for i in range(256))


def probe() -> float:
    """Seconds the fastest of two identical small dict-update passes takes."""
    best = float("inf")
    for _ in range(2):
        start = CLOCK()
        table: dict = {}
        acc = 0.0
        for _ in range(4):
            for key in _KEYS:
                value = table.get(key, 0.0) + key[2] * 0.5
                table[key] = value
                acc += abs(value - acc) * 1e-3
        best = min(best, CLOCK() - start)
    return best


class SpeedClock:
    """Splits time into segments at each ``lap`` and scales each by a probe.

    ``start`` is a reading of ``CLOCK``.  ``on_pause`` is told how many wall
    seconds each probe took, so that a tracer can take the probe out of the
    spans it falls in.
    """

    def __init__(self, start: float) -> None:
        self.segment_start = start
        self.raw = 0.0
        self.scaled = 0.0
        self.on_pause = None

    def lap(self) -> None:
        """Close the current segment and add it up; a probe runs after it."""
        wall = time.perf_counter()
        raw = CLOCK() - self.segment_start
        self.raw += raw
        self.scaled += raw * PROBE_REF_S / probe()
        self.segment_start = CLOCK()
        if self.on_pause is not None:
            self.on_pause(time.perf_counter() - wall)

    def mark(self) -> tuple[float, float]:
        """Close the current segment; (scaled, raw) seconds of all segments."""
        self.lap()
        return self.scaled, self.raw

    def since(self, mark: tuple[float, float]) -> tuple[float, float]:
        """Close the current segment; (scaled, raw) seconds since ``mark``."""
        scaled, raw = self.mark()
        return scaled - mark[0], raw - mark[1]
