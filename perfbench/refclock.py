"""Fixed reference kernels, timed in between the program's calls, that
tell how fast the machine ran during a run.

The host this benchmark was written on gives a few cores of a shared
machine whose speed drifts: for seconds to minutes at a time the same code
runs up to 1.6 times slower, so whole runs come out slow.  Timing a fixed
kernel of the benchmark's own (it calls no program code) before every
latency unit samples that speed along the run.  ``run.py`` scales each
round's times to a nominal machine, one that runs the kernel in
``NOMINAL_S``; see ``tracing.speed_factor``.

The drift does not slow all code alike: interpreter-bound code slows about
as much as the ``interp`` kernel, while the paper-scale PSNE scan, numpy
gathers over arrays of tens of thousands of entries, slows about half as
much, more than the ``array`` kernel alone.  So each workload names the
kernel that is like its dominant code: ``interp``, or ``mixed`` (both
kernels in turn) for the scan.  The kernel's own time is taken out of every
timed pass and is outside every latency span.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np

# About how long each kernel takes on the machine the benchmark was written
# on (2-core x86-64 VM, 2.1 GHz); a label for the nominal machine only.
NOMINAL_S = {"interp": 0.001, "mixed": 0.0016}

_BASE = np.linspace(0.0, 1.0, 48)
_SIZES = (11, 11, 11, 11)
_FLAT = np.arange(11 ** 4)
_TABLE = np.linspace(0.0, 1.0, 4096)


def interp_kernel() -> float:
    """Interpreter-bound work and small numpy calls, like the per-instance
    pipeline at desk scale and the oracle comparison loop."""
    total = 0
    table = {}
    for i in range(4400):
        total += (i * 40503) % 97
        table[i & 127] = total
    a = _BASE
    for _ in range(66):
        a = np.sort(a * 1.0001 + 0.25)[::-1] % 1.0
    return total + float(a[0])


def array_kernel() -> float:
    """Unravel a lattice of profiles, gather from a table and take each
    row's best, like one chunk of the vectorized PSNE scan."""
    idx = np.array(np.unravel_index(_FLAT, _SIZES))
    key = idx[0] * 7 + idx[1] * 5 + idx[2] * 3 + idx[3]
    vals = _TABLE[(key * 37) % len(_TABLE)].reshape(-1, _SIZES[-1])
    best = vals.max(axis=1)
    return float(best.sum()) + int((vals >= best[:, None]).sum())


def mixed_kernel() -> float:
    return interp_kernel() + array_kernel()


KERNELS = {"interp": interp_kernel, "mixed": mixed_kernel}


class RefClock:
    """Kernel samples of one run: ``samples`` holds each sample's wall
    seconds; ``wall_s`` and ``cpu_s`` the total spent in samples."""

    def __init__(self, kernel: str):
        self.kernel = KERNELS[kernel]
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def sample(self) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.kernel()
        wall = time.perf_counter() - wall0
        self.cpu_s += time.process_time() - cpu0
        self.wall_s += wall
        self.samples.append(wall)

    def before(self, fn, samples: int):
        def sampled(*args, **kwargs):
            for _ in range(samples):
                self.sample()
            return fn(*args, **kwargs)
        return sampled


@contextmanager
def sampling(clock: RefClock, targets, samples: int):
    """Take ``samples`` kernel samples before each call of ``module.attr``
    for the duration of the block; ``targets`` holds ``(module_name, attr,
    ...)``.  Entered inside ``tracing.patched``, so the samples are outside
    the call's span."""
    saved = []
    try:
        for module_name, attr, *_rest in targets:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, clock.before(getattr(module, attr), samples))
        yield clock
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
