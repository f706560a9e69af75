"""Host-speed probe: a fixed piece of work timed between benchmark calls.

On a shared host the speed of the same code drifts by 20-40 % over tens of
seconds as neighbours load the machine, which swamps the change a commit
makes. The probe does fixed work of the kinds proprio spends its time on
(interpreter-bound calls on small matrices, a cache-sized matrix product,
streaming elementwise arithmetic) and runs before the first call and after
every call, outside the timed interval. A call's time is then scaled by
NOMINAL_S / (mean of the probes on either side of it): what the call would
have taken with the host at the speed it had when NOMINAL_S was measured.

One 85 ms pass over the three parts varied about as much from one call to
the next as over a whole run, so the probe makes three passes, interleaving
the parts. In a calibration run, a probe of that length cut the spread of
scaled per-call filter times by about a fifth against a single short pass.

The probe touches no proprio code. Every product in it is small enough
that OpenBLAS runs it on one thread, because the wake-up state of a BLAS
thread pool makes a threaded GEMM's time swing several-fold on its own.
"""

from __future__ import annotations

import time

import numpy as np


class HostProbe:
    # Median probe time on the host the benchmark was defined on: 2 vCPUs of
    # an Intel Xeon, OpenBLAS 0.3.31, numpy 2.4, Python 3.11.
    NOMINAL_S = 0.255
    PASSES = 3
    SMALL_CALLS = 10000  # 15x15 products: interpreter and call overhead
    BLOCK_CALLS = 3000  # 64x64 products: one-thread BLAS kernel
    STREAM_CALLS = 10  # 1e6-element multiply-add: memory bandwidth

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((2, 15, 15))
        self.block = rng.standard_normal((2, 64, 64))
        self.stream = rng.standard_normal((3, 1_000_000))

    def __call__(self):
        """Seconds the fixed work took just now."""
        a, b = self.small
        c, d = self.block
        x, y, z = self.stream
        start = time.perf_counter()
        for _ in range(self.PASSES):
            for _ in range(self.SMALL_CALLS):
                a @ b
            for _ in range(self.BLOCK_CALLS):
                c @ d
            for _ in range(self.STREAM_CALLS):
                np.multiply(x, y, out=z)
                z += x
        return time.perf_counter() - start
