"""Host speed, sampled on a timer through the whole run.

The benchmark runs on a shared VM whose speed drifts: identical work
takes 40% longer for seconds at a time when a neighbour loads the
physical core, and CPU time slows just as much as wall time.  A time
taken on such a host measures the neighbours as much as the program.

:class:`Speedometer` runs a fixed reference kernel every
``interval_s`` seconds from a ``SIGALRM`` handler, so its samples cover
the run evenly whatever the program is doing.  The handler's own time is
taken out of :meth:`Speedometer.clock` and :meth:`Speedometer.cpu_clock`,
which every benchmark timing reads, so the program's times do not
include it.  :meth:`Speedometer.normalize` then rescales an interval by
the host's slowdown while it ran: the median of the nearby reference
samples over :data:`REFERENCE_S`, the kernel's time on the idle host.
A normalized time is the time the interval would have taken on the
host at that reference speed.  Changes to the program move it; changes
in the host's load mostly do not.
"""

from __future__ import annotations

import signal
import time

import numpy as np

perf_counter = time.perf_counter
thread_time = time.thread_time

#: Seconds one :func:`reference_kernel` call takes on the idle host
#: (Intel Xeon, 2 vCPUs at 2.1 GHz: the median of one run's samples while
#: no neighbour loaded the host).
REFERENCE_S = 0.45e-3
#: Reference samples on each side of an instant that its speed is the
#: median of (with the default interval, about 0.4 s either way).
HALF_WINDOW = 15

_M = (np.arange(24 * 24, dtype=np.float64).reshape(24, 24) % 17) / 17.0
_V = np.sin(np.arange(1024, dtype=np.float64) * 0.7)
#: A 4 MB array and 6 MB of Python floats, read in a scattered order:
#: the part of the kernel that slows when a neighbour contends for the
#: caches, as the program's own object-heavy code does.
_TABLE = np.arange(1 << 19, dtype=np.float64)
_GATHER = (np.arange(3000, dtype=np.int64) * 1_040_407) % (1 << 19)
_HEAP = [float(i) for i in range(1 << 18)]
_HEAP_ORDER = [(j * 40_503) % (1 << 18) for j in range(1000)]


def reference_kernel() -> float:
    """Fixed work in the program's own mix: interpreted integer loops,
    small numpy calls (matrices too small for BLAS to use threads) and
    scattered reads of numpy and Python-object memory, in about equal
    shares of time.  It allocates no object the garbage collector
    tracks."""
    s = 0
    for _ in range(3):
        for i in range(600):
            s += i * i % 7
        x = _M @ _M
        s += int(np.argsort(_V)[0]) + int(x[0, 0])
    h = float(_TABLE[_GATHER].sum())
    heap = _HEAP
    for i in _HEAP_ORDER:
        h += heap[i]
    return s + h


class Speedometer:
    """Timer-driven reference samples and the clocks that exclude them."""

    def __init__(self, interval_s: float = 0.025) -> None:
        self.interval_s = interval_s
        #: ``(program clock at the sample, sample wall seconds)``.
        self.samples: list[tuple[float, float]] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._previous = None
        self._t = np.empty(0)
        self._speed = np.empty(0)

    # -- clocks --------------------------------------------------------------

    def clock(self) -> float:
        """Wall seconds, less the time spent in reference samples."""
        return perf_counter() - self.spent_s

    def cpu_clock(self) -> float:
        """CPU seconds of the calling thread, less the CPU spent in
        reference samples (which run on the main thread)."""
        return thread_time() - self.spent_cpu_s

    # -- sampling ------------------------------------------------------------

    def _on_alarm(self, signum, frame) -> None:
        w0 = perf_counter()
        c0 = thread_time()
        reference_kernel()
        w1 = perf_counter()
        self.samples.append((w0 - self.spent_s, w1 - w0))
        self.spent_cpu_s += thread_time() - c0
        self.spent_s += perf_counter() - w0

    def start(self) -> None:
        for _ in range(20):  # warm the kernel's code and data
            reference_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self._finish()

    def _finish(self) -> None:
        """Rolling median of the samples: the host's slowdown at each."""
        if not self.samples:
            raise RuntimeError("no reference samples were taken")
        t, r = (np.asarray(c, dtype=np.float64) for c in zip(*self.samples))
        n = len(r)
        k = min(HALF_WINDOW, (n - 1) // 2)
        padded = np.concatenate([np.full(k, np.nan), r, np.full(k, np.nan)])
        windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * k + 1)
        self._t = t
        self._speed = np.nanmedian(windows, axis=1) / REFERENCE_S

    # -- normalization -------------------------------------------------------

    def slowdown(self, t: float) -> float:
        """The host's slowdown (1 = reference speed) at program clock ``t``."""
        return float(self.slowdowns([t])[0])

    def slowdowns(self, ts) -> np.ndarray:
        """:meth:`slowdown` at every program-clock instant in ``ts``."""
        idx = np.clip(np.searchsorted(self._t, np.asarray(ts)), 0, len(self._t) - 1)
        return self._speed[idx]

    def normalize(self, t0: float, t1: float, piece_s: float = 0.25) -> float:
        """Seconds the program-clock interval ``[t0, t1]`` would have taken
        at reference speed: integrated over pieces of ``piece_s``."""
        if t1 - t0 <= piece_s:
            return (t1 - t0) / self.slowdown(0.5 * (t0 + t1))
        edges = np.append(np.arange(t0, t1, piece_s), t1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        return float(np.sum(np.diff(edges) / self.slowdowns(mids)))

    def summary(self) -> dict:
        """Distribution of the raw samples and of the slowdown, for the
        run record."""
        r = np.asarray([s for _, s in self.samples])
        q = np.percentile(r, [5, 50, 95]) * 1e3
        return {
            "interval_s": self.interval_s,
            "samples": len(r),
            "spent_s": self.spent_s,
            "sample_ms_p5_p50_p95": [float(v) for v in q],
            "slowdown_min_median_max": [
                float(self._speed.min()), float(np.median(self._speed)),
                float(self._speed.max()),
            ],
        }
