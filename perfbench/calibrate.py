"""A fixed probe computation, sampled during the library calls.

The shared host the benchmark runs on changes speed by 15 to 20% over tens
of seconds and more, so two runs of the same code can differ that much in
wall time.  While a call runs, an interval timer interrupts it every
``INTERVAL_S`` seconds and the handler times one small fixed probe.  The
probe runs at the same moments as the call, on the same core, so it slows
down and speeds up with it.  ``pass_cal`` divides each call's wall time
(less the time spent in the handler) by the mean probe time during that
call, which takes most of the host's drift out.

A probe mixes the kinds of work the library does: a pure-Python loop, passes
over a numpy array and a small adaptive ODE solve with a Python right-hand
side.  It uses only Python, numpy and scipy, never ``invspec``, so a change
to the library cannot change the probe.  The handler runs in the main
thread between bytecodes, so a long native call delays a probe until it
returns; nothing in the library is entered from the handler.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

INTERVAL_S = 0.1
LOOP_STEPS = 10_000
ARRAY_SIZE = 1 << 16


def _rhs(x, y):
    return np.array([y[1], (np.cos(x) - 40.0) * y[0]])


class SpeedSampler:
    """Times one probe every INTERVAL_S seconds between ``start`` and ``stop``."""

    def __init__(self):
        self._x = np.linspace(0.0, 1.0, ARRAY_SIZE)
        self._y = np.empty_like(self._x)
        self.probes: list[float] = []
        self.overhead = 0.0
        self._previous = signal.SIG_DFL

    def probe(self) -> float:
        """Run the probe once; its wall time in seconds."""
        t = time.perf_counter()
        s = 0
        for i in range(LOOP_STEPS):
            s += i * i % 7
        np.cos(self._x, out=self._y)
        np.multiply(self._y, self._x, out=self._y)
        solve_ivp(_rhs, (0.0, 1.0), [0.0, 1.0], method="DOP853", rtol=1e-8, atol=1e-8)
        return time.perf_counter() - t

    def _on_alarm(self, signum, frame):
        t = time.perf_counter()
        self.probes.append(self.probe())
        self.overhead += time.perf_counter() - t

    def start(self) -> None:
        self.probes = []
        self.overhead = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrated(self, seconds: float) -> float:
        """``seconds`` in units of the mean probe time since ``start``; when
        no probe ran (a call shorter than INTERVAL_S) one is run now."""
        probes = self.probes or [self.probe()]
        return seconds / statistics.mean(probes)
