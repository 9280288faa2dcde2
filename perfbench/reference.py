"""Machine-speed reference for scaling wall times.

On a shared 2-vCPU Xeon virtual machine (OpenBLAS 0.3.31, one thread) the
same call takes up to twice as long from one minute to the next, with no
steal time and CPU time equal to wall time, so no run length averages the
drift away: across seeds the raw per-run throughput spread (interquartile
range over median) was 19-32%.  A fixed reference kernel, built from numpy
and plain Python only and never from approxk, is timed next to the work,
and each timing is scaled by `nominal / kernel time`.  Scaled times read
as seconds on a machine where the kernel takes its nominal time; the raw
wall times are printed beside them.

The drift does not hit all code alike, so each workload names the kernel
built like its own calls:

- "calls": small numpy calls, interpreter work, a 48x48 SVD pair and a
  memory stream (matrix_corpus).  Scaling by it cut the spread there from
  13-22% to 2-8%.
- "mixed": "calls" plus norms and products of a (720, 2, 2) stack, the
  loop-carrier half of the bundled scenarios (cli_run).
- "small": eig, 2-norm and inverse of 2x2 to 6x6 matrices, the Riesz
  rounding's own calls (riesz_batch).
- "dense": a batched SVD, product and inverse on a (4, 96, 96) stack, the
  shape of the loop reconstruction's work (loop_reconstruct).  Its time
  correlated 0.85 with that workload's, against 0.27 for "calls".
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

INTERVAL_S = 0.25

_rng = np.random.default_rng(0)
_SVD = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))
_SMALL = [_rng.standard_normal((4, 4)) + 0j for _ in range(30)]
_STACK = (_rng.standard_normal((4, 96, 96))
          + 1j * _rng.standard_normal((4, 96, 96)))
_LOOP = _rng.standard_normal((720, 2, 2)) + 1j * _rng.standard_normal((720, 2, 2))
_TINY = [_rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))
         for n in (2, 3, 4, 5, 6) * 4]


def _calls() -> None:
    for _ in range(2):
        np.linalg.svd(_SVD)
    for m in _SMALL:
        np.linalg.norm(m @ m - m, 2)
    total = 0
    for i in range(2000):
        total += i
    stream = np.ones(250_000, dtype=complex)
    stream *= 2.0


def _mixed() -> None:
    _calls()
    for _ in range(2):
        np.linalg.norm(_LOOP, 2, axis=(1, 2))
        np.matmul(_LOOP, _LOOP)


def _small() -> None:
    for m in _TINY:
        np.linalg.eig(m)
        np.linalg.norm(m @ m - m, 2)
        np.linalg.inv(m)


def _dense() -> None:
    np.linalg.svd(_STACK, compute_uv=False)
    np.matmul(_STACK, _STACK)
    np.linalg.inv(_STACK)


# kind -> (kernel, nominal seconds: about its time on that machine)
KERNELS = {"calls": (_calls, 0.004), "mixed": (_mixed, 0.009),
           "small": (_small, 0.002), "dense": (_dense, 0.011)}


def _time(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def measure(kind: str) -> float:
    """Median of three kernel times, in seconds."""
    kernel, _ = KERNELS[kind]
    return statistics.median(_time(kernel) for _ in range(3))


def factor(kind: str) -> float:
    """Scale factor for a timing taken now, after one discarded warm-up."""
    kernel, nominal = KERNELS[kind]
    kernel()
    return nominal / measure(kind)


class SpeedLog:
    """Kernel samples between operations, at most one per `INTERVAL_S`.

    A sample stored with index i was taken just before operation i.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal = KERNELS[kind][1]
        KERNELS[kind][0]()
        self.samples: list[tuple[int, float]] = []
        self._last = float("-inf")

    def maybe_sample(self, index: int) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample(index)

    def sample(self, index: int) -> None:
        self.samples.append((index, measure(self.kind)))
        self._last = time.perf_counter()

    def scale(self, latencies: list[float]) -> list[float]:
        """Each latency times the nominal kernel time over the mean of the
        samples taken just before and just after it."""
        if not self.samples:
            raise RuntimeError("no speed samples were taken")
        idx = [i for i, _ in self.samples]
        out = []
        for i, lat in enumerate(latencies):
            k = bisect.bisect_right(idx, i)
            around = [self.samples[k - 1][1]] if k else []
            if k < len(self.samples):
                around.append(self.samples[k][1])
            out.append(lat * self.nominal / statistics.fmean(around))
        return out

    def median_s(self) -> float:
        return statistics.median(s for _, s in self.samples)
