"""The host's current speed, read from a fixed pure-Python loop.

The benchmark runs on a few cores of a shared host whose speed drifts by
±20% over seconds to minutes, with CPU time equal to wall time, so the
drift is not waiting but slower execution.  A trial's wall time therefore
says as much about the host as about the program.  The loop below touches
nothing of genuslab.  The benchmark pins itself to one CPU and reads the
loop on that CPU before the first operation and after every operation.
Each operation's wall time is then multiplied by REF_LOOP_S over the
mean of the two readings that bracket it.  The result is the operation's
time in seconds at the speed the host had when REF_LOOP_S was fixed.  A
change to the program cannot move the loop, so it cannot move the scale.
Without the pin, the loop and the program may run on different CPUs, and
the loop no longer follows the program's speed.
"""

from __future__ import annotations

import os
from time import perf_counter

# median of the 529 readings of fifteen 30 s runs made when the benchmark
# was set up (5th to 95th percentile: 11.9 to 19.5 ms)
REF_LOOP_S = 0.0160
LOOP_N = 150_000


def pin_to_one_cpu() -> int:
    """Pin this process, and the processes it starts, to one of its CPUs."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def loop_seconds() -> float:
    t0 = perf_counter()
    s = 0
    for i in range(LOOP_N):
        s += i * i % 7
    return perf_counter() - t0


class Clock:
    """Times operations, with a reading of the loop after each.

    read() takes a reading and returns its index.  timed(fn) returns (fn's
    result or the exception it raised, the operation's index).  Once the
    run is over, seconds(k) gives operation k's time at reference speed."""

    def __init__(self):
        self.readings = [loop_seconds()]
        self.ops: list[tuple[float, int]] = []  # (wall seconds, index of the reading before)

    def read(self) -> int:
        self.readings.append(loop_seconds())
        return len(self.readings) - 1

    def scale(self, before: int, after: int) -> float:
        """Reference seconds per wall second between two readings."""
        return REF_LOOP_S / (0.5 * (self.readings[before] + self.readings[after]))

    def timed(self, fn):
        before = len(self.readings) - 1
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # the caller counts it as a failed operation
            out = exc
        self.ops.append((perf_counter() - t0, before))
        self.read()
        return out, len(self.ops) - 1

    def wall(self, k: int) -> float:
        return self.ops[k][0]

    def seconds(self, k: int) -> float:
        wall, before = self.ops[k]
        return wall * self.scale(before, before + 1)
