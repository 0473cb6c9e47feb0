"""What the benchmark's modules share: the checkout, memory readings and
the calibrated clock."""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import statistics
import struct
import time

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Iterations of one calibration loop (about 10 ms on a 2 GHz core) and
#: the loops per calibration; their median is the calibration.
CAL_ITERATIONS = 60_000
CAL_REPEATS = 5


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MB of this process, or of its largest
    waited-for child (``ru_maxrss`` is in KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _calibration_loop() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(CAL_ITERATIONS):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0) & 0xFF
    return total


def _calibrate() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(CAL_REPEATS):
            t0 = time.perf_counter()
            _calibration_loop()
            samples.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


def calibration_s(cpus: int = 1) -> float:
    """Seconds one fixed pure-Python loop takes now: the median of
    :data:`CAL_REPEATS` runs, with the collector off, averaged over
    ``cpus`` copies run at once (here and in ``cpus - 1`` forked
    children).  The loop shares no code with the program, so a change
    to the program leaves it alone, while the machine's momentary speed
    moves both alike."""
    children = []
    for _ in range(cpus - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                os.write(write_fd, struct.pack("d", _calibrate()))
            finally:
                os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    samples = [_calibrate()]
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as fh:
            samples.append(struct.unpack("d", fh.read())[0])
        os.waitpid(pid, 0)
    return sum(samples) / len(samples)


class Stopwatch:
    """Wall time of consecutive units of work, and each unit's time in
    calibration units: its wall time over the mean of the calibrations
    taken just before and just after it.

    On a shared machine a core's speed can change by a third or more
    from one second to the next; the ratio cancels what the loop and
    the program feel alike.
    """

    def __init__(self, cpus: int = 1) -> None:
        self.cpus = cpus
        self.wall: list[float] = []
        self.cal: list[float] = []
        self._before = calibration_s(cpus)

    @contextlib.contextmanager
    def unit(self):
        """Time the ``with`` block as one unit."""
        t0 = time.perf_counter()
        yield
        self.lap(time.perf_counter() - t0)

    def lap(self, wall: float) -> None:
        """Record a unit that has just ended and took ``wall`` seconds."""
        after = calibration_s(self.cpus)
        self.wall.append(wall)
        self.cal.append(wall / ((self._before + after) / 2))
        self._before = after
