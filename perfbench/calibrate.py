"""Time a fixed mix of interpreter, small-array and large-array numpy work.

    python3 perfbench/calibrate.py

Prints the time in seconds as its only output line. run.py runs it in a
process of its own right after each worker has exited, so it measures how
fast the machine is running at that moment, and never shares a process
with duoadapt: nothing duoadapt sets (BLAS threads, environment, imports)
can change it.
"""
import time

import numpy as np


def calibrate() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(600_000):
        acc += (i % 7) * 0.5
    a = np.full((64, 32), 0.5)
    w = np.full((32, 32), 0.01)
    for _ in range(8000):
        a = np.maximum(a @ w + 0.1, 0.0)
    x = np.full((32, 32, 9, 16, 16), 0.01)
    k = np.full((32, 32, 9), 0.02)
    for _ in range(3):
        np.tensordot(x, k, axes=([1, 2], [1, 2]))
    return time.perf_counter() - start


if __name__ == "__main__":
    print(calibrate())
