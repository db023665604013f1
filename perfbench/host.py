"""How fast the host runs this process, sampled while the program runs.

The benchmark runs on a few cores of a shared host. Other tenants can slow
this process by more than half, and a slow spell lasts from seconds to
minutes, so one run often sees only one speed. ``SpeedProbe`` therefore
times a small fixed kernel every ``INTERVAL_S`` of wall time, from a timer
signal, in the benchmark's own thread, while the program runs. A command's
slowdown is the mean kernel time during it over ``REFERENCE_S``: a mean,
because a command that spans fast and slow spells is slowed in proportion
to their shares, and trimmed, because a sample that a signal delays reads
far too long.

The kernel uses nothing from the program, so a change to the program moves
the normalised times in the same proportion as the wall times. It mixes the two
kinds of work the program does: small vector products driven from Python,
and dense matrix products in BLAS. At one pass per ``INTERVAL_S`` it costs
about one per cent of the run.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
TRIM = 10  # drop the lowest and the highest tenth of the samples
# The kernel's time on an unloaded core (Intel Xeon 4th generation, KVM
# guest, one BLAS thread), so that normalised times read as seconds there.
REFERENCE_S = 0.0003

_rng = np.random.default_rng(0)
_ROWS = _rng.normal(size=(16, 32))
_VEC = _rng.normal(size=32)
_MAT = _rng.normal(size=(48, 48))


def kernel_s():
    """Wall seconds of one pass of the reference kernel."""
    start = time.perf_counter()
    total = 0.0
    for i in range(200):
        total += float(_ROWS[i & 15] @ _VEC)
    for _ in range(10):
        _MAT @ _MAT
    return time.perf_counter() - start


class SpeedProbe:
    """Samples ``kernel_s`` from a SIGALRM interval timer while active."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        self.samples.append(kernel_s())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.samples)

    def slowdown(self, since):
        """Slowdown over the samples taken since ``mark()`` returned
        ``since``; a span too short to hold one uses the last samples."""
        recent = sorted(self.samples[since:] or self.samples[-3:] or [REFERENCE_S])
        cut = len(recent) // TRIM
        return statistics.fmean(recent[cut:len(recent) - cut]) / REFERENCE_S
