"""Machine-speed probe, so that timings mean the same on a busy shared host.

On a few cores of a shared host the same single-threaded operation runs
anywhere from 2.2 s to 4.2 s, minute to minute and even second to second,
as the neighbours' load comes and goes. The benchmark therefore measures
the host's speed while it times: a probe, a fixed slice of interpreter and
small-array numpy work like esdsim's own, runs every ``PERIOD_S`` of wall
time on the main thread (from a SIGALRM handler, so it samples the host
*during* an operation, not only between operations). A time is reported as
``seconds * REF_PROBE_S / mean probe time``: the seconds it would take on a
host where one probe takes ``REF_PROBE_S``. The probe is the benchmark's
own code, so a change to esdsim moves the scaled figures as it moves the
wall clock, while the host's load cancels out.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_ITERS = 300
WARM_ITERS = 60  # untimed, so the probe does not pay for the cache misses the
                 # operation it interrupted left behind
PERIOD_S = 0.1
REF_PROBE_S = 2.0e-3  # about one probe's time on a quiet 2-vCPU x86-64 host, in seconds

_X = np.linspace(0.0, 1.0, 128)


def _work(iters: int) -> float:
    acc = 0.0
    for i in range(iters):
        y = np.exp(_X * -(i % 7)) * np.cos(_X)
        acc += float(y.sum())
    return acc


def probe() -> float:
    """Wall time of one fixed slice of work, after a short warm-up."""
    _work(WARM_ITERS)
    start = time.perf_counter()
    _work(PROBE_ITERS)
    return time.perf_counter() - start


def burst(count: int = 10) -> list[float]:
    return [probe() for _ in range(count)]


def scale(samples: list[float]) -> float:
    """Factor from seconds on this host, as the samples found it, to
    seconds at the reference speed."""
    return REF_PROBE_S / statistics.fmean(samples)


class Sampler:
    """Collects probe times every ``PERIOD_S`` while a ``with`` block runs.

    It needs the main thread: esdsim's ``run`` and ``sweep --jobs 1`` run
    there, so the handler interleaves with their work. The handler stays
    installed; outside a block it does nothing, so a late signal is harmless.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._inside = 0.0
        self._active = False
        signal.signal(signal.SIGALRM, self._handler)

    def _handler(self, signum, frame):
        if self._active:
            start = time.perf_counter()
            self.samples.append(probe())
            self._inside += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.samples = []
        self._inside = 0.0
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._active = False

    def result(self) -> tuple[float, list[float]]:
        """Seconds the probes took inside the block, and the samples; an
        operation too short for the timer gets one sample taken after it."""
        return self._inside, self.samples or [probe()]
