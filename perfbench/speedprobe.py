#!/usr/bin/env python3
"""Sample the machine's speed next to a benchmark run.

    python3 perfbench/speedprobe.py OUT_FILE

Every 50 ms it runs a fixed kernel (small frozen objects, dicts and int32
block sums, like mvpo's hot paths) and appends one line to OUT_FILE: the
`time.perf_counter()` at the start and the CPU seconds the kernel took.  CPU
time, not wall time, so that being descheduled does not count; a slower
machine state does.  The kernel never runs program code, so no change to
mvpo can move it.  The probe exits when its parent terminates it or dies.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.05


@dataclass(frozen=True)
class _Vec:
    x: int
    y: int


def main(out_path: str) -> None:
    rng = np.random.default_rng(0)
    blocks = rng.integers(0, 256, (17, 17, 16, 16)).astype(np.int32)
    block = rng.integers(0, 256, (16, 16)).astype(np.int32)
    parent = os.getppid()
    with open(out_path, "w") as out:
        while os.getppid() == parent:
            start, cpu0 = time.perf_counter(), time.thread_time()
            d = {}
            for i in range(3000):
                v = _Vec(i & 63, i >> 6)
                d[v.x, v.y] = v
            for _ in range(15):
                np.abs(blocks - block).sum(axis=(2, 3)).argmin()
            out.write(f"{start:.6f} {time.thread_time() - cpu0:.7f}\n")
            out.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(sys.argv[1])
