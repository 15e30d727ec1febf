"""Machine-speed calibration: a fixed piece of Python, timed all through a pass.

On a shared virtual machine the speed of a vCPU changes by up to 2x, in
bursts of a fraction of a second and in phases that last minutes, because
of work outside this process; CPU time slows down with it, so neither wall
time nor CPU time of a call is steady from run to run.  The benchmark
therefore runs this fixed piece of work, which the program under test
never runs, every INTERVAL_S of CPU time and around the calls it measures.
The CPU time of a call is cut at the calibrations that fall inside it, and
each piece is scaled by REFERENCE_S over the mean of the two calibrations
on either side of it.  A change to the program moves the scaled time; a
change in machine speed moves the call and its calibrations together and
cancels out.  Scaled times are CPU seconds on a machine where one
calibration takes REFERENCE_S.
"""

import gc
import signal
from bisect import bisect_right
from fractions import Fraction
from math import gcd
from time import process_time

ROUNDS = 250

# CPU seconds that one calibration takes on the machine the benchmark was
# written on (a 2-vCPU Intel Xeon VM, Python 3.11), when it runs fast.
REFERENCE_S = 0.00065

# CPU seconds between timed calibrations: 5-10% of a pass goes to them.
INTERVAL_S = 0.0125


def _work():
    # The same kind of work as the program's: pure-Python Fraction
    # arithmetic, gcd, tuple-keyed dicts, string formatting.
    total = Fraction(0)
    table = {}
    for i in range(1, ROUNDS + 1):
        a, b = i * 7 % 97 + 1, i * 11 % 89 + 2
        total += Fraction(a, b)
        key = (a % 13, b % 7)
        table[key] = table.get(key, 0) + gcd(a, b)
    return "%s %d" % (total, len(table))


def calibrate():
    """CPU seconds of one calibration.  The garbage collector is held off,
    so that garbage the program left behind is not collected on its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = process_time()
        _work()
        return process_time() - start
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Calibrations over a stretch of calls, and the calls' CPU intervals.

    Used as a context manager: it calibrates on entry and on exit and, with
    `timer`, on a CPU-time timer (SIGPROF) in between, inside calls too.
    Without it, the caller calibrates between calls with `calibrate`.
    """

    def __init__(self, timer):
        self.timer = timer
        self.calibrations = []  # (CPU start, CPU end, seconds) per calibration
        self.calls = []  # (CPU start, CPU end) per call

    def calibrate(self):
        start = process_time()
        seconds = calibrate()
        self.calibrations.append((start, process_time(), seconds))

    def record(self, start, end):
        self.calls.append((start, end))

    def _on_timer(self, signum, frame):
        self.calibrate()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S)

    def __enter__(self):
        self.calibrate()
        if self.timer:
            self._previous = signal.signal(signal.SIGPROF, self._on_timer)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        if self.timer:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, self._previous)
        self.calibrate()

    def call_times(self):
        """(scaled, raw) CPU seconds per call, calibrations inside it left out.

        A Python signal handler runs between two bytecodes of the main
        code, so a calibration lies wholly inside a call or wholly outside.
        """
        starts = [c[0] for c in self.calibrations]
        scaled, raw = [], []
        for start, end in self.calls:
            first = bisect_right(starts, start) - 1
            last = bisect_right(starts, end)
            chain = self.calibrations[first:last + 1]
            total_scaled = total_raw = 0.0
            for before, after in zip(chain, chain[1:]):
                piece = min(after[0], end) - max(before[1], start)
                total_raw += piece
                total_scaled += piece * 2 * REFERENCE_S / (before[2] + after[2])
            scaled.append(total_scaled)
            raw.append(total_raw)
        return scaled, raw
