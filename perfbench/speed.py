"""Machine speed, measured while an operation runs, and the CPU times of
the operation scaled to a fixed reference speed.

The measured machine is a share of a host whose vCPUs each switch, every
few seconds and independently of each other, between a fast state and one
about 1.7 times slower; the guest sees no steal time, so CPU time slows as
much as wall time. run.py therefore pins itself and the operation's
process to one CPU and runs a ``Calibrator`` thread beside the operation.
The two share that CPU in slices of a few milliseconds, so the calibrator
sees the same fast and slow periods as the operation. Its chunk is pure
Python of the kind adamlab runs (float arithmetic on short lists,
function calls, step records and ``repr``-formatted CSV lines), so it
slows about as much as the program does.

A CPU time ``cpu_s`` spent between monotonic times ``a`` and ``b`` is
reported as ``cpu_s * rate(a, b) / REFERENCE_RATE``: the seconds it would
have taken on a machine that runs ``REFERENCE_RATE`` chunks per CPU
second. The calibrator is benchmark code, the same on every commit.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from dataclasses import dataclass

REFERENCE_RATE = 500.0  # chunks per CPU second that define a reference second


@dataclass
class Record:
    k: int
    w: tuple
    grad_norm: float
    line: str


class Chunk:
    """About two milliseconds of Adam-like pure Python on a tiny finite sum,
    with a CSV line per step. Records and lines are kept in rings, so every
    chunk after the first few hundred allocates and frees the same amount."""

    N, D, STEPS, KEEP, TEXTS = 10, 4, 200, 40_000, 64

    def __init__(self) -> None:
        self.centers = [[(j * 7 + l * 3) % 11 / 11.0 for l in range(self.D)] for j in range(self.N)]
        self.records: list = [None] * self.KEEP
        self.texts: list = [None] * self.TEXTS
        self.k = 0
        self.done = 0

    def grad(self, j: int, w: list) -> list:
        c = self.centers[j]
        return [2.0 * (w[l] - c[l]) for l in range(self.D)]

    def __call__(self) -> None:
        w, m, nu = [0.5] * self.D, [0.0] * self.D, [0.0] * self.D
        lines = []
        for i in range(self.STEPS):
            g = self.grad((i * 7 + self.k) % self.N, w)
            for l in range(self.D):
                gl = g[l]
                nu[l] = 0.99 * nu[l] + 0.01 * gl * gl
                m[l] = 0.9 * m[l] + 0.1 * gl
                w[l] -= 1e-3 * m[l] / (math.sqrt(nu[l]) + 1e-8)
            gn = math.hypot(*g)
            line = ",".join([str(self.k), str(i)] + [repr(v) for v in w] + [repr(gn)])
            self.records[self.k % self.KEEP] = Record(self.k, tuple(w), gn, line)
            lines.append(line)
            self.k += 1
        self.texts[self.done % self.TEXTS] = "\n".join(lines)
        self.done += 1


class Calibrator:
    """Runs ``chunk`` in a thread from ``start`` to ``stop`` and records
    after each call (monotonic time, calls done, thread CPU seconds). Pass
    one chunk to the calibrators of a whole run, so it is warm."""

    def __init__(self, chunk: Chunk) -> None:
        self.chunk = chunk
        self.series: list[tuple[float, int, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        chunk, series, stop = self.chunk, self.series, self._stop
        done = 0
        series.append((time.monotonic(), done, time.thread_time()))
        while not stop.is_set():
            chunk()
            done += 1
            series.append((time.monotonic(), done, time.thread_time()))

    def start(self) -> "Calibrator":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def rate(self, a: float, b: float) -> float:
        """Chunks per CPU second over the shortest stretch of the series
        that covers [a, b]."""
        return rate(self.series, a, b)


def rate(series: list[tuple[float, int, float]], a: float, b: float) -> float:
    times = [t for t, _, _ in series]
    lo = max(bisect.bisect_right(times, a) - 1, 0)
    hi = min(bisect.bisect_left(times, b), len(series) - 1)
    if hi <= lo:
        raise ValueError(f"the calibrator recorded no chunk between {a} and {b}")
    (_, n0, c0), (_, n1, c1) = series[lo], series[hi]
    if c1 <= c0:
        raise ValueError("the calibrator got no CPU time")
    return (n1 - n0) / (c1 - c0)


def reference_seconds(cpu_s: float, chunk_rate: float) -> float:
    """CPU seconds spent at ``chunk_rate``, in reference seconds."""
    return cpu_s * chunk_rate / REFERENCE_RATE
