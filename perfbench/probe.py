"""Machine-speed probe: a fixed piece of work timed all through a run.

On a shared host the processor's speed changes from second to second: other
guests contend for the same cores, caches and memory, and the same
deterministic computation takes 0.7x to 1.3x its usual CPU time.  That
noise is common to everything the process runs, so the benchmark times a
fixed reference computation at regular intervals while the library works
and reports the library's CPU time in *reference seconds*:

    reference_s = cpu_s * NOMINAL_PROBE_S / mean(probe CPU time)

``NOMINAL_PROBE_S`` is a fixed scale, about the probe's CPU time on the
reference machine (1.9-2.5 ms measured there, see README.md), so there
reference seconds are close to CPU seconds.  A faster library lowers
``cpu_s`` and leaves the probe alone; a slower host raises both.

The probe runs from a ``SIGVTALRM`` handler every ``INTERVAL_S`` of the
process's user CPU time, so it samples the machine in proportion to the
work being measured.  Python runs the handler between bytecodes of the main
thread; the probe touches nothing of the library.  Its own CPU time is
subtracted from every phase it interrupts.  Times are the main thread's CPU
time (``time.thread_time``), which is where all the work runs: while an
interval timer is armed the kernel updates the process-wide CPU clock only
once per tick, too coarsely to time the probe.
"""

import math
import signal
import time

INTERVAL_S = 0.05
NOMINAL_PROBE_S = 0.0025
_PROBE_ROUNDS = 400


def reference_work():
    """Pure-Python floating point, list and dict work: about 2 ms."""
    acc = 0.0
    table = {}
    for r in range(_PROBE_ROUNDS):
        row = [math.sqrt(i + r) * 1.0001 for i in range(24)]
        table[r % 7] = sum(x * x for x in row)
        acc += table[r % 7] / (1.0 + len(row))
    return acc


class SpeedProbe:
    """Times ``reference_work`` every ``INTERVAL_S`` CPU seconds.

    ``samples`` holds ``(thread CPU time when the probe ended, probe CPU
    seconds)``; ``spent`` is the total CPU time spent probing.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None
        self._running = False

    def _handler(self, signum, frame):
        c0 = time.thread_time()
        reference_work()
        c1 = time.thread_time()
        self.samples.append((c1, c1 - c0))
        self.spent += c1 - c0

    def start(self):
        self._previous = signal.signal(signal.SIGVTALRM, self._handler)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        self._running = True

    def stop(self):
        if self._running:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0.0, 0.0)
            previous = self._previous
            signal.signal(signal.SIGVTALRM,
                          signal.SIG_DFL if previous is None else previous)
            self._running = False

    def mean(self):
        """Mean probe time over the run so far; 0.0 before the first probe."""
        if not self.samples:
            return 0.0
        return sum(d for _, d in self.samples) / len(self.samples)

    def mark(self):
        """A point in the run: ``(thread CPU time, probe time so far)``."""
        return time.thread_time(), self.spent

    @staticmethod
    def cpu_seconds(start, end):
        """CPU time between two marks, without the probe's."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def reference_seconds(self, start, end):
        """CPU time between two marks, without the probe's, in reference seconds.

        The speed is the mean probe time within the phase, or over the whole
        run when no probe fell in it; with no probes at all (a traced run)
        the CPU time is returned as it is.
        """
        cpu = self.cpu_seconds(start, end)
        inside = [d for c, d in self.samples if start[0] < c <= end[0]]
        durations = inside or [d for _, d in self.samples]
        if not durations:
            return cpu
        return cpu * NOMINAL_PROBE_S / (sum(durations) / len(durations))
