"""A fixed CPU probe that tracks the host's current speed.

The benchmark's host is a small VM on a shared machine. Its speed drifts
by up to 1.9x over minutes, and it does so evenly across a run's passes.
The runner times this probe between passes, so its end-to-end timings
can be read at one reference host speed (see ``run.py``). The probe does
the same kinds of work as the workloads -- text parsing, small-object
churn, multinomial draws, a float32 GEMM and zlib -- on fixed inputs,
and calls nothing in ``repro``: a change to the engine cannot move it.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

#: seconds :meth:`HostProbe.time` takes at the reference host speed: the
#: fastest probe seen on the 2-core x86_64 VM the baseline was measured on
REFERENCE_S = 0.020


class HostProbe:
    """Fixed inputs, built once, for a probe of about 20 ms."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._text = "\n".join(
            " ".join(map(str, row)) for row in rng.integers(0, 500, (2_000, 10))
        )
        self._matrix = rng.random((500, 500), dtype=np.float32)
        self._cells = np.full(2_000, 1 / 2_000)
        self._blob = rng.integers(0, 40, 16_000, dtype=np.int64).tobytes()

    def time(self) -> float:
        """Seconds one probe takes now."""
        rng = np.random.default_rng(1)
        start = time.perf_counter()
        rows = [tuple(map(int, line.split())) for line in self._text.splitlines()]
        {frozenset(row[i : i + 4]): row for row in rows for i in (0, 3, 6)}
        rng.multinomial(4_000, self._cells, size=40)
        self._matrix @ self._matrix
        zlib.compress(self._blob, 6)
        return time.perf_counter() - start
