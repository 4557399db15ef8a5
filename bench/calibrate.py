"""Host-speed calibration for the shared, noisy host the benchmark runs on.

On a few vCPUs of a shared machine the same job can take 1.5x longer from
one minute to the next, and a slow phase can cover a whole run, so no
repetition inside a run removes it. The benchmark therefore times a fixed
calibration kernel, from this file and never from the package, right
before and right after each timed job, and reports job time divided by the
kernel's median time around it. A slow phase stretches both alike; a
change to the program moves only the numerator.

The kernel mixes the kinds of work a job does on one thread: float
formatting and joining (CSV rendering), tuple-keyed dict updates (registry
and tree bookkeeping), small-array ``numpy`` rounding and reductions
(surface steps) and small files written and renamed into place (artifact
writes, a fifth to a third of a control or tree job). Its inputs are fixed,
so it does the same work in every run, whatever the workload seed.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

SLICES = 3  # kernel runs on each side of a timed job

_rng = np.random.default_rng(20160601)
_FLOATS = [float(x) for x in _rng.random(6000) * 3.0]
_SURFACE = _rng.random((400, 3))
_FILE_TEXT = "0.0,1.0,0.25\n" * 250
FILES = 16


def kernel(directory: str) -> int:
    """One calibration slice, about 40 ms on a 2-vCPU Xeon VM; its files go
    to ``directory`` and are removed again."""
    half = len(_FLOATS) // 2
    text = "\n".join(",".join((repr(a), repr(b)))
                     for a, b in zip(_FLOATS[:half], _FLOATS[half:]))
    table: dict = {}
    for i in range(15000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0.0) + i * 0.5
    x = _SURFACE
    best = 0
    for _ in range(250):
        x = np.round(np.abs(x * 1.001 - 0.0005), 9)
        best = int(np.argmin(x.min(axis=1)))
    os.makedirs(directory, exist_ok=True)
    names = [os.path.join(directory, f"slice_{k:02d}.csv")
             for k in range(FILES)]
    for name in names:
        tmp = name + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_FILE_TEXT)
        os.replace(tmp, name)
    for name in names:
        os.unlink(name)
    return len(text) + len(table) + best


def slices(directory: str) -> list[float]:
    """Seconds taken by each of ``SLICES`` calibration slices."""
    times = []
    for _ in range(SLICES):
        start = perf_counter()
        kernel(directory)
        times.append(perf_counter() - start)
    return times
