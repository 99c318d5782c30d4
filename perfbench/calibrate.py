"""Machine-speed calibration for timings taken on a shared, variable-speed host.

On a shared 2-vCPU VM the effective CPU speed drifts with the load of other
tenants: the same default oracle run has taken 1.7 s and 3.5 s within two
minutes, and separate processes interleaved rep by rep speed up and slow
down together. Raw wall times then spread more between runs than any
useful regression bound.

So each run also times a fixed piece of reference work (Python object churn,
dict and tuple traffic, small-array numpy calls and random memory reads;
never the program under test) between its set-ups and reps, and reports
every time scaled to the speed at which that work takes ``REFERENCE_S``:

    calibrated = measured * REFERENCE_S / median(reference times of the run)

The reference work runs in a child process pinned to the benchmark's CPU, so
that it sees the same contention but adds nothing to the benchmark's own
peak memory. Run as a script, this module is that child: it times one
reference call for every line read from stdin.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

#: Duration of one ``reference_work`` call at the reference machine speed.
REFERENCE_S = 0.2


def reference_work(table: np.ndarray, index: np.ndarray) -> float:
    """Fixed, deterministic work with the same mix the program spends its time in."""
    acc = 0.0
    for i in range(200_000):
        acc += i * i
    rng = np.random.default_rng(0)
    a = np.ones((16, 16))
    p = np.full(13, 1.0 / 13.0)
    for _ in range(1500):
        b = a @ a
        a = b / b.sum(axis=1, keepdims=True)
        acc += int(rng.choice(13, p=p))
    acc += float(table[index].sum())
    records = {}
    for i in range(50_000):
        records[(i, i % 13)] = (i, str(i), [i])
    for key in list(records)[::3]:
        acc += records[key][0]
    items = []
    for i in range(3000):
        x = rng.standard_normal((7, 16))
        items.append((x, {"i": i, "sum": x.sum()}))
    for j in rng.integers(0, 3000, 3000):
        acc += items[j][1]["sum"] + items[j][0][0, 0]
    return acc


def serve() -> None:
    table = np.random.default_rng(0).standard_normal(4_000_000)
    index = np.random.default_rng(1).integers(0, table.size, 300_000)
    for _ in sys.stdin:
        start = perf_counter()
        reference_work(table, index)
        print(perf_counter() - start, flush=True)


class Calibrator:
    """Samples the reference work's duration in a child pinned to this process's CPU."""

    def __init__(self):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.samples: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def sample(self) -> None:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration process ended early")
        self.samples.append(float(line))

    def scale(self) -> float:
        """Factor that turns this run's measured times into calibrated times."""
        return REFERENCE_S / statistics.median(self.samples)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
