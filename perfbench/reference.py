"""A fixed reference kernel that measures how fast the host runs right now.

On a shared machine the speed of one core drifts by half as much again over
minutes (other tenants' load, not descheduling: CPU time moves with wall
time). A run of a minute cannot average that out, so the benchmark runs
this kernel between input seeds and scales each seed's wall times by
``NOMINAL_S / (reference seconds around that seed)``. The result reads as
seconds on a host where the kernel takes ``NOMINAL_S``.

The kernel mixes the two kinds of work the pipelines do: an interpreter
loop and a 3x3 convolution written as nine numpy einsums on float32 arrays.
It never touches lrbench, so a change to the program moves the scaled times
and leaves the kernel alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Any fixed value would do: it only sets the scale of the reported times.
# On the 2-core VM the benchmark was tuned on (numpy with OpenBLAS, one BLAS
# thread) the kernel took about 30 to 55 ms, depending on the host's load.
NOMINAL_S = 0.035
LOOP_ITERATIONS = 200_000


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((16, 16, 34, 34)).astype(np.float32)
        self.w = rng.standard_normal((16, 16)).astype(np.float32)

    def seconds(self) -> float:
        """Wall time of one pass of the kernel."""
        start = time.perf_counter()
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i * i
        y = np.zeros((16, 16, 32, 32), dtype=np.float32)
        for di in range(3):
            for dj in range(3):
                y += np.einsum("nchw,oc->nohw",
                               self.x[:, :, di:di + 32, dj:dj + 32], self.w)
        return time.perf_counter() - start


def host_factors(refs: list[float]) -> list[float]:
    """Scale factor for each of len(refs) - 1 seeds, where refs[k] and
    refs[k + 1] were measured just before and just after seed k."""
    return [NOMINAL_S / statistics.fmean(pair)
            for pair in zip(refs, refs[1:])]
