"""A fixed kernel that measures the machine's speed next to the operations.

The benchmark runs on a shared machine whose speed drifts: the same
runs have been 2.5 times faster within one hour, and CPU time moved
with wall time. A drift of that size between two runs swamps any change
to the program. So each run times this kernel, which does not touch
twoslit, every EVERY_S seconds between operations, and divides each
timed figure by the kernel's time measured around it. Multiplied by
NOMINAL_S, the kernel's time on a quiet machine, the figure is again in
seconds: the seconds the operation would take on that quiet machine.
A change to the program moves the figure by its own factor; a change of
the machine's speed that hits the kernel and the program alike cancels.

The kernel is the kind of work the library does: small numpy linear
algebra called from Python loops, float arithmetic on array rows, and
the parsing and formatting of numbers that the CLI does.
"""

import json
import time
from array import array

import numpy as np

# Kernel time on a quiet machine (Intel Xeon, 2 vCPUs, one BLAS thread).
NOMINAL_S = 2.5e-3
# Seconds between kernel samples in the measured phase, and the number
# of samples nearest to an operation whose median is its reference.
EVERY_S = 0.1
NEAREST = 7
ROUNDS = 80

_RNG = np.random.default_rng(20161205)
_SVD = _RNG.normal(size=(16, 9))
_SOLVE = _RNG.normal(size=(4, 4)) + 4.0 * np.eye(4)
_ROWS = _RNG.normal(size=(40, 4))
_CSV = ",".join(f"{v:.17g}" for v in _ROWS[:3].ravel())


def kernel():
    acc = 0.0
    for i in range(ROUNDS):
        s = np.linalg.svd(_SVD, compute_uv=False)
        x = np.linalg.solve(_SOLVE, _ROWS[i % 40])
        y = _ROWS @ x
        acc += (float(s[0]) + float(np.dot(x, x))
                + float(np.linalg.det(_SOLVE @ _SOLVE.T)) + float(np.abs(y).max()))
        for row in _ROWS[:10]:
            acc += float(row[0]) * float(row[1]) - float(row[2])
        acc += sum(float(field) for field in _CSV.split(","))
        acc += len(json.dumps(_ROWS[i % 40].tolist()))
    return acc


class Clock:
    """Kernel samples of one run: when, and how long in wall and CPU time."""

    def __init__(self):
        self.at = array("d")
        self.wall = array("d")
        self.cpu = array("d")
        self.last = -np.inf

    def sample(self):
        c0 = time.process_time()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.cpu.append(time.process_time() - c0)
        self.wall.append(t1 - t0)
        self.at.append(0.5 * (t0 + t1))
        self.last = t1

    def maybe_sample(self):
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def samples(self, count):
        """`count` samples in a row; returns their median wall time."""
        first = len(self.wall)
        for _ in range(count):
            self.sample()
        return float(np.median(self.wall[first:]))

    def reference(self, at):
        """Median kernel wall and CPU time of the NEAREST samples around
        each time in `at`, as two arrays."""
        samples = np.asarray(self.at)
        k = min(NEAREST, len(samples))
        lo = np.clip(np.searchsorted(samples, at) - k // 2, 0, len(samples) - k)
        windows = lo[:, None] + np.arange(k)
        return (np.median(np.asarray(self.wall)[windows], axis=1),
                np.median(np.asarray(self.cpu)[windows], axis=1))
