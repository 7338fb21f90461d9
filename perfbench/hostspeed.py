"""A fixed reference kernel that times the host, not nulldist.

The machine the benchmark was built on is shared: the speed of one core
moves by up to 1.7x within seconds and drifts over minutes, whatever runs
in the process. A fixed 30 ms Python loop, best of five, took 20 ms to 35 ms
within one minute. `run.py` therefore times this kernel between the
operations of every pass and scales the pass's times by `NOMINAL_S` over the
kernel's time in that pass, so that `wall_s`, `cpu_s` and `setup_s` read as
seconds on the host at the kernel's nominal speed.

The kernel has three parts, each timed best of two, and each like a kind of
work the workloads do: a dict-indexed Python loop (interpreter work),
elementwise passes over a 1.6 MB array and a small matrix product (numpy
work), and long-form CSV lines formatted from numpy scalars into a buffer
(the work of `formats.write_long_matrix_csv`, which slows more than the
other two when the host is busy). A pass's kernel time is the sum of each
part's median over the pass. The kernel imports nothing from nulldist, so no
change to the program can move it.
"""

from __future__ import annotations

import io
import statistics
import time

import numpy as np

# each part's median time on the development machine (see README.md)
NOMINAL = {"interp": 0.0025, "numpy": 0.0105, "text": 0.0028}
NOMINAL_S = sum(NOMINAL.values())

_rng = np.random.default_rng(0)
_VEC = _rng.random(200_000)
_MAT = _rng.random((120, 120))
_TABLE = {i: i for i in range(5000)}
_ROWS = _rng.random((40, 50))


def _interp() -> int:
    s = 0
    for i in range(20_000):
        s += _TABLE[i % 5000] * i % 7
    return s


def _numpy() -> float:
    x = _VEC
    for _ in range(20):
        x = np.sqrt(x * x + 1.0)
    return float(x.sum() + (_MAT @ _MAT).sum())


def _text() -> int:
    buf = io.StringIO()
    for r in range(_ROWS.shape[0]):
        for c in range(_ROWS.shape[1]):
            buf.write(f"{r},{c},{format(float(_ROWS[r, c]), '.17g')}\n")
    return buf.tell()


PARTS = {"interp": _interp, "numpy": _numpy, "text": _text}


def _best_of_two(fn) -> float:
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Kernel samples taken over some stretch of a run (one pass, or the
    set-up probes)."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {name: [] for name in PARTS}

    def sample(self) -> None:
        for name, fn in PARTS.items():
            self.samples[name].append(_best_of_two(fn))

    def parts(self) -> dict[str, float]:
        """Each part's median time over the stretch."""
        return {name: statistics.median(v) for name, v in self.samples.items()}

    def kernel_s(self) -> float:
        """The kernel's time over the stretch: the sum of the parts' medians."""
        return sum(self.parts().values())

    def scale(self) -> float:
        """Factor that turns a time measured over the stretch into seconds at
        the kernel's nominal speed."""
        return NOMINAL_S / self.kernel_s()
