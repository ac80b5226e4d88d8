"""Host-speed correction for the benchmark's wall times.

On a shared virtual machine (such as the 2-vCPU x86_64 VM the README's
figures come from) each vCPU can switch between a fast and a slow state, at
random, for stretches of a fraction of a second to minutes. In the slow
state the same work takes 1.5 to 2 times as long. Medians of raw wall time
over a 20-second run then differ by 15 to 30 % from run to run, with the
program unchanged.

A ``Speedometer`` measures the host's speed while the work runs. A timer
signal runs a fixed integer-arithmetic loop, the probe (about 0.27 ms in
the fast state), every ``PROBE_INTERVAL_S`` seconds, and once right before
and after each timed section. ``corrected`` divides a section's wall time by the mean
probe time inside it, relative to ``REFERENCE_PROBE_S``. The result is the
wall time the section would have taken at the reference speed. The probes
cost about 0.5 % of the run, the same for every version of the program.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_INTERVAL_S = 0.05
# probe time in the fast state of the machine the README's numbers come from
REFERENCE_PROBE_S = 2.7e-4
_WINDOW_SLACK_S = 0.01


def _probe_kernel() -> int:
    # integer arithmetic only: it allocates no container, so it can never
    # trigger (and be charged for) a garbage collection of the program's heap
    x = 1
    for i in range(2000):
        x = (x * 48271 + i) % 2147483647
    return x


class Speedometer:
    """Probe samples taken while it runs; use as a context manager."""

    def __init__(self):
        self.samples = []        # (start, seconds) of each probe
        self._busy = False
        self._previous = None
        for _ in range(3):
            _probe_kernel()  # warm up, so that the first sample is not an outlier

    def probe(self) -> None:
        if self._busy:           # a timer signal arrived during a probe
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            _probe_kernel()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def corrected(self, t0: float, t1: float) -> float:
        """Wall time from ``t0`` to ``t1`` at the reference speed; needs a
        probe right before ``t0`` and right after ``t1``."""
        inside = [dt for start, dt in self.samples
                  if t0 - _WINDOW_SLACK_S <= start <= t1 + _WINDOW_SLACK_S]
        return (t1 - t0) * REFERENCE_PROBE_S / statistics.fmean(inside)
