"""A fixed numpy kernel that gauges how fast the shared machine runs right now.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts by
tens of per cent within minutes (steal time, and neighbours on the same
cores and caches).  No statistic of a run's own rounds removes that drift.
So one short slice of this kernel runs before every set-up and before every
operation, and each round's times are scaled by the reference slice time
over the mean slice time of that round: they read in seconds of this
machine at its reference speed.  One slice varies by tens of per cent from
the next; the mean over a round's 9 to 20 slices is steadier.

The kernel is built like the work the library does per quadrature node and
per pseudospectrum cell: small bordered complex systems assembled with
``np.block``, decomposed with a full SVD and solved, in a Python loop, plus
small solves and a 48 x 48 complex SVD.  Of the mixes tried, this one
followed the drift of contour-count rounds best: over 50 rounds whose time
varied by 14 % (coefficient of variation), the ratio of round time to slice
time varied by 2.6 %.  It never touches grushinlab, so a change to the
library moves the metrics and not the yardstick.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20260601)
_SMALL = [_rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16)) for _ in range(8)]
_RHS = np.ones(16, dtype=complex)
_BORDER = _rng.standard_normal((16, 2)) + 0j
_CORNER = np.zeros((2, 2), dtype=complex)
_UNIT = np.eye(18, dtype=complex)[:, -2:]
_POINTS = (0.1 + 0.2j, -0.3 + 0.1j, 0.5j)
_MEDIUM = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))

#: Median wall and CPU time of one slice on the reference machine (2 vCPUs,
#: Python 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31, one BLAS thread).
REFERENCE_WALL_S = 0.0105
REFERENCE_CPU_S = 0.0105


def measure() -> tuple[float, float]:
    """Run one slice (about 10 ms); return its wall and CPU time."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for a in _SMALL:
        for _ in range(20):
            np.linalg.solve(a, _RHS)
        for z in _POINTS:
            bordered = np.block([[z * np.eye(16) - a, _BORDER], [_BORDER.T, _CORNER]])
            s = np.linalg.svd(bordered)[1]
            x = np.linalg.solve(bordered, _UNIT)
            np.trace(x[-2:, :]) + s.max()
    for _ in range(3):
        np.linalg.svd(_MEDIUM)
    return time.perf_counter() - wall0, time.process_time() - cpu0
