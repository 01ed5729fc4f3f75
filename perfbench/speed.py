"""Host-speed probe: scales CPU seconds to the host's quiet speed.

On a shared virtual machine the speed of a vCPU moves in phases of several
seconds, by up to 1.8x, with what other tenants run: the same request costs
more CPU seconds in a busy phase.  The probe times a fixed pure-Python kernel
every INTERVAL_S of the process's CPU time (SIGPROF) and at the edges of each
measured window.  A window's scale is the mean of NOMINAL_S / kernel time over
its samples, so CPU seconds times scale are the seconds the same work takes
when the kernel runs at NOMINAL_S.  The kernel allocates no containers after
its first line and runs with the collector off, so the program's heap does not
reach its timing; a change to the program moves the scaled time, a busy phase
of the host moves both and cancels.

CPU time is read from the thread clock: while a CPU-time interval timer is
armed, Linux updates the process-wide CPU clock only at scheduler ticks, and
the processes that use the probe are single-threaded.
"""
from __future__ import annotations

import gc
import signal
import time

NOMINAL_S = 3.5e-4  # kernel CPU time at the reference speed (quiet phase)
INTERVAL_S = 0.02


def kernel_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    c0 = time.thread_time()
    d = {}
    x = 1
    for i in range(2000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        d[x & 255] = i
    elapsed = time.thread_time() - c0
    if enabled:
        gc.enable()
    return elapsed


class Probe:
    """Samples the host's speed while this process computes."""

    def __init__(self):
        self.restart()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def _sample(self) -> float:
        spent = kernel_seconds()
        self._scales.append(NOMINAL_S / max(spent, 1e-9))
        return spent

    def _tick(self, *_):
        self.spent_s += self._sample()

    def restart(self):
        """Open a new window with a fresh sample (taken before the window's
        own CPU time starts to count)."""
        self._scales: list[float] = []
        self.spent_s = 0.0  # kernel CPU seconds inside the window
        self._sample()

    def scale(self) -> float:
        """Close the window with a fresh sample; its mean scale."""
        self._sample()
        return sum(self._scales) / len(self._scales)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
