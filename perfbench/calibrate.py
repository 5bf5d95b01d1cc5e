"""Calibration probe: fixed work that never touches the program.

On a shared host the speed of the same code drifts by 20-60% for tens of
seconds at a time, and every kind of work drifts together. The benchmark
times this probe around set-up and around every pass, and scales its times
by ``REFERENCE_S / min(probe times)``: the result is seconds at the speed at
which the reference machine ran the probe. The fastest probe is used because
a 0.2 s probe is itself noisy: single probes in one run spread by +-30%,
while the fastest of five to nine moved with the machine's slow spells and
little else. The probe mixes the kinds of work the program does: small-matrix
linear algebra (the CI tests), CSV parsing (loading), dict counting
(entropies) and array grouping (effects).
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

# Typical fastest probe of a run on the reference machine (2-vCPU Intel Xeon
# KVM guest, Python 3.11, numpy 2.4): the scale of the reported seconds.
REFERENCE_S = 0.18


class Probe:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.small = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        self.text = "\n".join(
            ",".join(repr(float(v)) for v in row) for row in rng.standard_normal((5000, 10))
        )
        self.codes = rng.integers(0, 5, size=(60000, 3))
        self.times: list[float] = []

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(4000):
            np.linalg.cond(self.small)
            np.linalg.inv(self.small)
        rows = [[float(c) for c in r] for r in csv.reader(io.StringIO(self.text))]
        counts: dict[tuple[int, int], int] = {}
        for a, b, _ in self.codes[:40000].tolist():
            counts[(a, b)] = counts.get((a, b), 0) + 1
        np.unique(self.codes, axis=0, return_counts=True)
        elapsed = time.perf_counter() - start
        if len(rows) != 5000 or sum(counts.values()) != 40000:
            raise RuntimeError("calibration probe computed the wrong result")
        self.times.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """Factor from this run's seconds to reference-speed seconds."""
        return REFERENCE_S / min(self.times)
