"""Host-speed calibration for a shared, drifting machine.

On a machine whose cores are shared with other tenants the same operation
can take twice as long from one minute to the next, and CPU time drifts with
wall time, so no clock hides it.  The benchmark therefore runs this fixed
kernel, which only uses numpy, scipy and the interpreter and never the
program under test, between every two operations, and scales each
operation's wall time by REFERENCE_S over the kernel time measured around
it.  Reported times are thus seconds on the reference host; the raw wall
times are kept next to them in the result file.

The kernel mixes the program's kinds of work: a sparse LU solve, small
batched einsums, connected-component labelling and an interpreter-bound
loop, in about 25 ms.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.ndimage as ndi
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Kernel time that defines the reference host: about the median on a
# 2 vCPU Intel Xeon virtual machine at 2.1 GHz (Python 3.11, numpy 2.4,
# scipy 1.17), whose kernel times ranged from 0.020 to 0.045 s.  Changing
# it rescales every reported time.
REFERENCE_S = 0.025


class Calibration:
    def __init__(self, n: int = 80):
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        self.matrix = (sp.kron(sp.eye(n), lap) + sp.kron(lap, sp.eye(n))).tocsc()
        self.rhs = np.ones(n * n)
        rng = np.random.default_rng(0)
        self.cells = rng.standard_normal((2000, 4, 4))
        self.basis = rng.standard_normal((2000, 4))
        self.mask = rng.standard_normal((256, 128)) > 0.3
        self.samples = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        spla.splu(self.matrix).solve(self.rhs)
        np.einsum("ka,kab,kb->k", self.basis, self.cells, self.basis)
        ndi.label(self.mask)
        acc = 0.0
        seen = {}
        for i in range(20000):
            acc += (i * 0.5) % 7.0
            seen[(i & 255, i >> 8)] = acc
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Median wall time of three kernel runs, kept in `samples`.  An
        uncounted run goes first: the first run after a large operation
        pays for re-faulting memory that operation released."""
        self._kernel()
        seconds = statistics.median(self._kernel() for _ in range(3))
        self.samples.append(seconds)
        return seconds
