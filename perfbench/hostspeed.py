"""Host-speed calibration for timings taken on a shared virtual machine.

On a shared host the speed one process gets changes in phases of seconds to
minutes as other tenants' load comes and goes. On the 2-vCPU host this
benchmark was written on, one and the same sweep call took 0.27 s in one
phase and 0.58 s in the next, and every workload slowed by about the same
factor at the same time. Process CPU time slows too, so it is no remedy.

A fixed kernel that uses no tlsperm code, timed right before and after each
call, slows by that factor as well. Each call's time is scaled by
REF_S / (mean of the two kernel times): it is then reported at one fixed host
speed, so a change of the program moves the figures and a change of the
host's phase does not. Raw times are printed alongside.
"""
from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linear_sum_assignment

ROUNDS = 60

# Kernel time in the fast phase (its 5th percentile) of the reference host:
# 2-vCPU Intel Xeon at 2.0 GHz, Python 3.11.7, numpy 2.4.6, scipy 1.17.1
# with scipy-openblas 0.3.31, one BLAS thread. Reported times are seconds at
# that speed.
REF_S = 0.0073


class HostSpeed:
    """Times the calibration kernel and turns kernel times into scales."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20160823)
        self._a = rng.standard_normal((60, 4))
        self._cost = rng.random((60, 60))
        self._perms = [rng.permutation(60) for _ in range(ROUNDS)]
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the kernel once. Each round does the kind of work the
        workloads do: a small SVD of a stacked, row-permuted pair, a small
        dense assignment and an interpreter-bound dict loop."""
        t0 = time.perf_counter()
        for perm in self._perms:
            np.linalg.svd(np.hstack((self._a[:, :2], self._a[perm, 2:])), compute_uv=False)
            linear_sum_assignment(self._cost[perm])
            counts: dict[int, int] = {}
            for i in perm[:30].tolist():
                counts[i] = counts.get(i, 0) + 1
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that takes a time measured between two kernel samples to
        the reference host speed."""
        return REF_S / ((before + after) / 2.0)
