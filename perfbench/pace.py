"""The host's pace: how long fixed reference work takes during a run,
relative to a nominal time for it.

On a shared host the same CPU-bound work runs at different speeds from
second to second and from minute to minute, with no page faults, system
time or steal to show for it: the virtual CPU itself runs slower, by up to
about 40 %. Reference kernels of the kinds the program runs (a median over
a stack of 720p frames, a bilinear gather over a 720p frame, interpreter
work and BLAS matmuls) slow down together, to within a few per cent of
each other. The bench probes them between its timed phases and rescales
the main thread's CPU time of a span by the pace; time off the CPU (socket
waits, timers, the sink's reply delay) is left as measured:

    normalised = cpu_time / pace + (wall_time - cpu_time)

A span takes the pace interpolated between the probes around its middle.

A pace of 1 means the kernels ran in their nominal times. They use numpy
and Python only, never emonet, so a change to the program cannot move
them.
"""

from __future__ import annotations

import math
import time

import numpy as np

cpu_now = time.thread_time

# Nominal kernel times in ms: about the fastest probe of a 30 s run on a
# 2-vCPU Xeon VM (Python 3.11, numpy 2.4, one OpenBLAS thread).
NOMINAL_MS = {"median": 55.0, "gather": 4.5, "interp": 7.7, "matmul": 5.5}


def _pace(times_ms) -> float:
    """Geometric mean over the kernels of time / nominal time."""
    logs = [math.log(ms / NOMINAL_MS[name]) for name, ms in zip(NOMINAL_MS, times_ms)]
    return math.exp(sum(logs) / len(logs))


class Pace:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._stack = rng.integers(0, 256, size=(5, 720, 1280), dtype=np.uint8)
        self._frame = rng.random((720, 1280))
        ys, xs = np.linspace(0, 718, 281), np.linspace(0, 1278, 500)
        self._y0, self._x0 = ys.astype(np.intp), xs.astype(np.intp)
        self._wy, self._wx = (ys - self._y0)[:, None], xs - self._x0
        self._a = rng.random((256, 256))
        self.probes: list[tuple[float, list[float]]] = []    # (time, kernel ms)
        self._curve: tuple[list[float], list[float]] = ([], [])

    def _median(self) -> None:
        np.median(self._stack, axis=0)

    def _gather(self) -> None:
        f, y0, x0, wy, wx = self._frame, self._y0, self._x0, self._wy, self._wx
        top = f[y0][:, x0] * (1 - wx) + f[y0][:, x0 + 1] * wx
        bottom = f[y0 + 1][:, x0] * (1 - wx) + f[y0 + 1][:, x0 + 1] * wx
        top * (1 - wy) + bottom * wy

    @staticmethod
    def _interp() -> None:
        total = 0
        for i in range(200_000):
            total += i

    def _matmul(self) -> None:
        for _ in range(10):
            self._a @ self._a

    def probe(self) -> None:
        """Time every kernel once."""
        times_ms = []
        for name in NOMINAL_MS:
            fn = getattr(self, "_" + name)
            start = time.perf_counter()
            fn()
            times_ms.append((time.perf_counter() - start) * 1e3)
        self.probes.append((time.monotonic(), times_ms))

    def at(self, t: float) -> float:
        """The pace at time t, interpolated between the probes around it."""
        if not self.probes:
            return 1.0
        if len(self._curve[0]) != len(self.probes):
            self._curve = ([when for when, _ in self.probes],
                           [_pace(ms) for _, ms in self.probes])
        return float(np.interp(t, *self._curve))

    @property
    def median(self) -> float:
        """The run's median pace, for the record."""
        return float(np.median([_pace(ms) for _, ms in self.probes])) if self.probes else 1.0

    def normalise(self, start: float, wall: float, cpu: float) -> float:
        """A span's wall time (s) with its CPU part rescaled to nominal pace,
        at the pace around the span's middle."""
        cpu = min(max(cpu, 0.0), wall)
        return cpu / self.at(start + wall / 2) + (wall - cpu)
