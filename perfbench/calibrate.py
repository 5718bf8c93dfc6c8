"""Machine-speed calibration: times measured against a fixed kernel.

The benchmark's box is a few cores of a shared host whose effective CPU
speed drifts by tens of percent over seconds and minutes.  Raw op times
carry that drift.  A `Calibrator` runs a small fixed kernel, which does
not call rfhnet, at the start of a pass, every SAMPLE_EVERY_S seconds
while the ops run (from a SIGALRM handler, so samples land inside long
ops too), and at the end of the pass.  Each op's time is then divided by
the kernel's trimmed mean time around that op and multiplied by the
kernel's nominal time: the op's time at the nominal speed, in reference
seconds (`ref_s`).  When the program gets faster the kernel does not, so
the reference time falls.

The time spent in the handler is subtracted from the op it interrupted.

Two kernels match the two kinds of work the workloads do:

- `quad`: adaptive quadrature of a Python integrand through scipy, the
  pattern of the analytic layers' nested integrals;
- `numpy`: exponential draws and a matrix-vector product on a 450 x 1000
  array, the pattern of the simulator's slot loop.
"""
from __future__ import annotations

import math
import signal
import statistics
import time
from bisect import bisect_left
from typing import Callable, Dict, List, Tuple

SAMPLE_EVERY_S = 0.25
EDGE_SAMPLES = 9          # kernel runs before the first op and after the last
PAD_S = 3.0               # samples this close to an op also describe it
NEAREST = 9               # at least this many samples describe an op


def _quad_kernel() -> Callable[[], float]:
    from scipy import integrate

    def tail(u, lower, half):
        w = 1.0 - u
        base = lower + u / w
        return 1.0 / (1.0 + math.exp(half * math.log(base))) / (w * w)

    def kernel():
        total = 0.0
        for i in range(48):
            lower = 0.03 * (i + 1)
            total += integrate.quad(tail, 0.0, 1.0, args=(lower, 1.5),
                                    epsabs=1e-14, epsrel=1e-11,
                                    limit=200)[0]
        return total
    return kernel


def _numpy_kernel() -> Callable[[], float]:
    import numpy as np
    # arrays the size of the dense field's users x stations, so that the
    # kernel leans on memory as the slot loop does
    rng = np.random.default_rng(12345)
    gains = np.empty((450, 1000))
    power = rng.random((450, 1000))
    active = np.ones(1000)

    def kernel():
        total = 0.0
        for _ in range(2):
            rng.standard_exponential(out=gains)
            total += float(((gains * power) @ active).sum())
        return total
    return kernel


# kernel name -> (factory, nominal seconds of one kernel run).  The nominal
# time is about the kernel's median, mid-pass, on the 2-core VM where
# README.md's numbers were taken, so a reference second is about a second
# there.  Changing it rescales every reference time.
KERNELS: Dict[str, Tuple[Callable[[], Callable[[], float]], float]] = {
    "quad": (_quad_kernel, 0.0128),
    "numpy": (_numpy_kernel, 0.0097),
}


class Calibrator:
    """Samples the kernel's time across a pass; see the module doc."""

    def __init__(self, kernel: str):
        factory, self.nominal_s = KERNELS[kernel]
        self.kernel = factory()
        self.kernel()                 # warm: imports, first-call costs
        self.samples: List[Tuple[float, float]] = []   # (midpoint, seconds)
        self.interrupts: List[Tuple[float, float]] = []  # (start, end)
        self._previous = None

    def _sample(self) -> None:
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2.0, end - start))

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self._sample()
        self.interrupts.append((start, time.perf_counter()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def start(self) -> None:
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        for _ in range(EDGE_SAMPLES):
            self._sample()

    def spent_in(self, start: float, end: float) -> float:
        """Time the handler took from [start, end]; it only runs between
        two Python bytecodes, so an interruption lies wholly inside or
        wholly outside a window timed with perf_counter."""
        return sum(b - a for a, b in self.interrupts if start <= a < end)

    def kernel_s(self, start: float, end: float) -> float:
        """Kernel time around [start, end]: the mean over the samples taken
        within PAD_S of it, or over the NEAREST samples to its midpoint
        when there are fewer, leaving out the highest and lowest tenth.
        A mean, not a median, because an op's time adds up every slow
        spell it meets; trimmed, because a single kernel run that the host
        stalled would otherwise weigh as much as ten."""
        mids = [m for m, _ in self.samples]
        lo = bisect_left(mids, start - PAD_S)
        hi = bisect_left(mids, end + PAD_S)
        if hi - lo < NEAREST:
            at = bisect_left(mids, (start + end) / 2.0)
            lo = max(0, min(at - NEAREST // 2, len(mids) - NEAREST))
            hi = lo + NEAREST
        times = sorted(s for _, s in self.samples[lo:hi])
        cut = len(times) // 10
        return statistics.fmean(times[cut:len(times) - cut])

    def ref_seconds(self, seconds: float, start: float, end: float) -> float:
        """`seconds` measured over [start, end], at the nominal speed."""
        return seconds * self.nominal_s / self.kernel_s(start, end)
