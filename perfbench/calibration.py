"""Machine-speed calibration and the normalized cost of a command.

The host this benchmark runs on may slow the whole process down for
seconds at a time.  A fixed kernel, timed just before and just after each
command, measures the machine's speed at that moment; a command's cost in
``ref`` units is its wall time divided by the mean of those two kernel
times, so a host slowdown that hits command and kernel alike cancels.

The kernel uses no stockloan code.  It mixes an interpreter loop with
numpy calls on small and medium arrays, which is what the solvers' inner
loops spend their time on.
"""

from __future__ import annotations

import time

import numpy as np

KERNEL_LOOP = 15_000
KERNEL_SWEEPS = 150
KERNEL_GATHERS = 20


def kernel() -> float:
    """Run the fixed calibration work once; returns a checksum.

    Three parts, shaped like the solvers' inner loops: a plain interpreter
    loop, red-black relaxation sweeps that gather and scatter through index
    arrays on 400 nodes, and 2-D gathers on a 200 x 50 grid.
    """
    acc = 0.0
    for i in range(KERNEL_LOOP):
        acc += (i % 7) * 0.5 - acc * 1e-6
    n = 400
    f = np.linspace(0.0, 1.0, n)
    b = f[::-1].copy()
    lower = 0.5 * f
    colors = (np.arange(1, n - 1, 2), np.arange(2, n - 1, 2))
    for _ in range(KERNEL_SWEEPS):
        for idx in colors:
            gs = (b[idx] + 0.25 * f[idx - 1] + 0.25 * f[idx + 1]) / 1.5
            cand = f[idx] + 1.2 * (gs - f[idx])
            np.maximum(cand, lower[idx], out=cand)
            acc += float(np.max(np.abs(cand - f[idx])))
            f[idx] = cand
    grid = np.linspace(0.0, 1.0, 200 * 50).reshape(200, 50)
    rows = np.arange(1, 199)[:, None]
    cols = (np.arange(50) * 7) % 49
    for _ in range(KERNEL_GATHERS):
        grid[1:-1] = (0.5 * grid[rows, cols] + 0.25 * grid[rows - 1, cols + 1]
                      + 0.25 * grid[rows + 1, cols])
    return acc + float(grid.sum())


def time_kernel() -> float:
    """Wall time of one kernel run, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def normalized_cost(wall: float, kernel_before: float, kernel_after: float) -> float:
    """Cost in ref units: wall time over the mean of the bracketing kernel times."""
    if wall < 0.0 or kernel_before <= 0.0 or kernel_after <= 0.0:
        raise ValueError(
            f"need wall >= 0 and positive kernel times, got {wall}, {kernel_before}, {kernel_after}"
        )
    return wall / (0.5 * (kernel_before + kernel_after))
