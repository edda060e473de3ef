"""Dynamic time warping for content alignment.

The sound-field verifier compares a verification sweep against an
enrolment sweep of the *same pass-phrase*.  Speaking-rate jitter shifts
phonemes by tens of milliseconds between repetitions, so the two traces
are aligned with classic DTW on their level envelopes before differencing
— after alignment, the speech content cancels and only the radiation
pattern difference remains.
"""

from __future__ import annotations

import numpy as np

from repro.dsp import _soskernel
from repro.errors import SignalError


def dtw_path(
    reference: np.ndarray,
    query: np.ndarray,
    band_fraction: float = 0.2,
) -> tuple[np.ndarray, np.ndarray]:
    """Monotonic DTW path between two 1-D sequences.

    Uses squared distance on z-normalised values and a Sakoe–Chiba band of
    ``band_fraction`` of the longer length.  Returns ``(ref_idx, query_idx)``
    arrays describing the optimal path from (0, 0) to (n-1, m-1).  The
    recurrence runs in the compiled kernel when one is available and in
    :func:`_dtw_banded_py` otherwise, with the same bits either way.
    """
    ref = np.asarray(reference, dtype=float)
    qry = np.asarray(query, dtype=float)
    if ref.ndim != 1 or qry.ndim != 1 or ref.size < 2 or qry.size < 2:
        raise SignalError("DTW needs two 1-D sequences of length >= 2")

    def znorm(x: np.ndarray) -> np.ndarray:
        s = x.std()
        return (x - x.mean()) / (s if s > 1e-12 else 1.0)

    r, q = znorm(ref), znorm(qry)
    n, m = r.size, q.size
    band = max(int(band_fraction * max(n, m)), abs(n - m) + 2)
    if _soskernel.kernel_available():
        path = _soskernel.dtw_banded(r, q, band)
    else:
        path = _dtw_banded_py(r, q, band)
    if path is None:
        raise SignalError("DTW band too narrow for these sequences")
    return path


def _dtw_banded_py(
    r: np.ndarray, q: np.ndarray, band: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The banded recurrence and backtrack without the compiled kernel.

    Returns ``(ref_idx, query_idx)``, or ``None`` when the band never
    reaches the last cell.  :func:`repro.dsp._soskernel.dtw_banded` runs
    the same cells, adds and compares in C.
    """
    n, m = r.size, q.size
    # The DP runs over native Python floats: every cell update is the same
    # IEEE-754 double add/compare the ndarray version performed, so costs
    # (and therefore paths and downstream scores) are bitwise unchanged,
    # but per-cell work drops from numpy scalar boxing to list indexing.
    inf = float("inf")
    dist = ((r[:, None] - q[None, :]) ** 2).tolist()
    cost = [[inf] * m for _ in range(n)]
    cost[0][0] = dist[0][0]
    # First row: only left-neighbour moves are reachable.
    row0, drow0 = cost[0], dist[0]
    for j in range(1, min(m, band + 1)):
        prev = row0[j - 1]
        if prev != inf:
            row0[j] = drow0[j] + prev
    for i in range(1, n):
        j_lo = max(0, int(i * m / n) - band)
        j_hi = min(m, int(i * m / n) + band + 1)
        row = cost[i]
        up = cost[i - 1]
        drow = dist[i]
        for j in range(j_lo, j_hi):
            best = up[j]
            if j > 0:
                v = row[j - 1]
                if v < best:
                    best = v
                v = up[j - 1]
                if v < best:
                    best = v
            if best != inf:
                row[j] = drow[j] + best

    if cost[n - 1][m - 1] == inf:
        return None

    # Backtrack.
    path_r, path_q = [n - 1], [m - 1]
    i, j = n - 1, m - 1
    while i > 0 or j > 0:
        candidates = []
        if i > 0 and j > 0:
            candidates.append((cost[i - 1][j - 1], i - 1, j - 1))
        if i > 0:
            candidates.append((cost[i - 1][j], i - 1, j))
        if j > 0:
            candidates.append((cost[i][j - 1], i, j - 1))
        _, i, j = min(candidates, key=lambda c: c[0])
        path_r.append(i)
        path_q.append(j)
    return np.array(path_r[::-1]), np.array(path_q[::-1])


def align_to_reference(
    reference: np.ndarray, query: np.ndarray, band_fraction: float = 0.2
) -> np.ndarray:
    """Indices into ``query`` matching each reference sample.

    When several query frames map to one reference frame the first match
    is used; the result has ``len(reference)`` entries.
    """
    ref_idx, qry_idx = dtw_path(reference, query, band_fraction)
    mapping = np.full(len(reference), -1, dtype=int)
    for r_i, q_i in zip(ref_idx, qry_idx):
        if mapping[r_i] < 0:
            mapping[r_i] = q_i
    # Fill any gaps (can't happen with a full path, but be safe).
    for i in range(len(mapping)):
        if mapping[i] < 0:
            mapping[i] = mapping[i - 1] if i else 0
    return mapping
