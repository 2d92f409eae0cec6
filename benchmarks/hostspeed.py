"""Times scaled to a fixed host speed.

The speed of a shared host drifts by tens of percent over seconds to
minutes, and the drift reaches all pure-Python code.  So while the workload
runs, a timer signal interrupts it every INTERVAL_S seconds, and the handler
times `reference()`, a fixed pure-Python computation on the oracle's tables,
run once untimed first so that its code and data are in cache, and with the
garbage collector off.  The time of an interval is its wall time minus the
time spent in the handler, multiplied by (REFERENCE_S / r) ** SENSITIVITY,
where r is the median reference time sampled inside the interval, or, when
fewer than MIN_SAMPLES samples fall inside it, of the MIN_SAMPLES samples
around it.  So factors are taken once the run has its samples.  A clock
that is never started takes no samples and leaves every time as measured.

The reference slows down more than the workloads when the host is busy.
SENSITIVITY is the exponent that made the scaled pass times steadiest, the
same on all three workloads: over runs of two to three minutes, the
pass-to-pass coefficient of variation went from 0.15 (raw) to 0.05 on
closure, from 0.13 to 0.06 on membership and from 0.08 to 0.05 on
enumerate.
"""

import gc
import signal
import statistics
import time

import oracle

INTERVAL_S = 0.1
# median of the timed reference() on the host the bounds were set on (a
# shared 2-vCPU x86-64 VM, Python 3.11.7)
REFERENCE_S = 1.6e-3
SENSITIVITY = 0.6
MIN_SAMPLES = 10

_REFERENCE_ALG = oracle.product(oracle.chain(*oracle.ln_plus_tables(1)),
                                oracle.chain(*oracle.ln_plus_tables(2)))


def reference():
    return oracle.failed_axioms(_REFERENCE_ALG)


class Clock:
    def __init__(self):
        self.samples = []  # seconds of each reference() run
        self.spent = 0.0  # seconds spent in the handler

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # the workload's garbage is not the host's speed
        try:
            reference()
            t1 = time.perf_counter()
            reference()
            self.samples.append(time.perf_counter() - t1)
        except RecursionError:
            pass  # the signal landed in a deep recursion: no sample
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return self.spent, len(self.samples), time.perf_counter()

    def since(self, mark):
        """(seconds outside the handler, (first, end) sample index) since
        mark."""
        now = time.perf_counter()
        spent, n, t = mark
        return now - t - (self.spent - spent), (n, len(self.samples))

    def factor(self, span):
        """Scale factor of the interval whose samples are span."""
        first, end = span
        if len(self.samples) < MIN_SAMPLES:
            return 1.0
        if end - first < MIN_SAMPLES:
            first = min(max((first + end - MIN_SAMPLES) // 2, 0),
                        len(self.samples) - MIN_SAMPLES)
            end = first + MIN_SAMPLES
        r = statistics.median(self.samples[first:end])
        return (REFERENCE_S / r) ** SENSITIVITY
