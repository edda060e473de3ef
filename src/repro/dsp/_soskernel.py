"""Optional compiled DSP kernels: batched cascades and the banded DTW.

scipy's ``_sosfilt`` processes one signal at a time; a biquad recurrence
is latency-bound (each output sample depends on the previous state), so a
single pass runs at the FP-add latency wall no matter how it is
vectorised.  *Independent* recurrences, however, can run side by side in
the lanes of one SIMD register: the six render-band filters over one
capture, or the two IQ rails of the pilot, advance together, one vector
operation per scalar operation of a single cascade.

The cascade kernel replicates scipy's per-sample operation order exactly
(same multiplies, same adds, same sequence) in every lane, so each
signal's output is bitwise-identical to what ``scipy.signal.sosfilt``
produces for that signal alone; the lanes change scheduling, not
per-signal FP semantics.  The DTW kernel runs the banded recurrence and
first-minimum backtrack of :func:`repro.dsp.align.dtw_path` with the
same IEEE adds and compares as its Python loop.

Everything is one C source, compiled once on first use with the system
C compiler using ``-ffp-contract=off`` (no FMA contraction — contraction
could reassociate the rounding scipy's build performs).  The lane loop is
built twice, for AVX2 and for the x86-64 baseline (SSE2), and the loader
picks the variant the CPU supports (``target_clones``); no build flag
names the build machine's CPU, because cached builds are keyed by source
and flags only.  When no compiler is available the module degrades to
``None`` and callers fall back to their scipy/Python paths, keeping
results identical either way.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.ckernel import DEFAULT_CFLAGS, load_library

_C_SOURCE = r"""
#include <stdint.h>

/* Second-order-section cascades, one per signal.

   Per-signal operation order matches scipy.signal._sosfilt's Cython
   kernel exactly:

       x_new = sos[s,0]*x + zi[s,0];
       zi[s,0] = sos[s,1]*x - sos[s,4]*x_new + zi[s,1];
       zi[s,1] = sos[s,2]*x - sos[s,5]*x_new;

   sos: (k, n_sections, 6) C-contiguous, one cascade per signal.
   x:   (k, n) C-contiguous, filtered in place.
   zi:  (k, n_sections, 2) C-contiguous, updated in place.
   With reverse set, each row is consumed back-to-front: the result
   equals filtering the reversed row and storing the output reversed. */

static void sosfilt_scalar(const double *sos, long n_sections, long k,
                           double *x, long n, double *zi, int reverse) {
    for (long t = 0; t < n; t++) {
        const long i = reverse ? n - 1 - t : t;
        for (long j = 0; j < k; j++) {
            double xn = x[j * n + i];
            const double *sj = sos + j * 6 * n_sections;
            double *zj = zi + j * 2 * n_sections;
            for (long s = 0; s < n_sections; s++) {
                const double *c = sj + 6 * s;
                double *z = zj + 2 * s;
                double x_new = c[0] * xn + z[0];
                z[0] = c[1] * xn - c[4] * x_new + z[1];
                z[1] = c[2] * xn - c[5] * x_new;
                xn = x_new;
            }
            x[j * n + i] = xn;
        }
    }
}

/* The same cascades with signals in SIMD lanes: lane l of vector v holds
   signal 4*v + l.  A block of samples is copied into a fixed interleaved
   stack buffer, filtered there one vector operation per scalar operation
   above, and copied back.  Unused lanes carry zero coefficients, state
   and input, and stay zero. */

typedef double v4d __attribute__((vector_size(32)));

#define LANE_BLOCK 128
#define LANE_VECTORS 2
#define MAX_LANES (4 * LANE_VECTORS)
#define MAX_LANE_SECTIONS 8

#if defined(__clang__)
#define UNROLL _Pragma("unroll")
#elif defined(__GNUC__)
#define UNROLL _Pragma("GCC unroll 8")
#else
#define UNROLL
#endif

static inline __attribute__((always_inline)) void
lanes_run(const long nv, const long ns, const double *sos, long kg,
          double *x, long n, double *zi, int reverse) {
    v4d c0[MAX_LANE_SECTIONS][LANE_VECTORS], c1[MAX_LANE_SECTIONS][LANE_VECTORS];
    v4d c2[MAX_LANE_SECTIONS][LANE_VECTORS], c4[MAX_LANE_SECTIONS][LANE_VECTORS];
    v4d c5[MAX_LANE_SECTIONS][LANE_VECTORS];
    v4d z0[MAX_LANE_SECTIONS][LANE_VECTORS], z1[MAX_LANE_SECTIONS][LANE_VECTORS];
    v4d buf[LANE_BLOCK][LANE_VECTORS];
    const v4d zero = {0.0, 0.0, 0.0, 0.0};
    for (long s = 0; s < ns; s++) {
        for (long v = 0; v < nv; v++) {
            c0[s][v] = c1[s][v] = c2[s][v] = c4[s][v] = c5[s][v] = zero;
            z0[s][v] = z1[s][v] = zero;
            for (long l = 0; l < 4; l++) {
                const long j = 4 * v + l;
                if (j >= kg)
                    break;
                const double *c = sos + (j * ns + s) * 6;
                c0[s][v][l] = c[0];
                c1[s][v][l] = c[1];
                c2[s][v][l] = c[2];
                c4[s][v][l] = c[4];
                c5[s][v][l] = c[5];
                z0[s][v][l] = zi[(j * ns + s) * 2];
                z1[s][v][l] = zi[(j * ns + s) * 2 + 1];
            }
        }
    }
    for (long b = 0; b < LANE_BLOCK; b++)
        for (long v = 0; v < nv; v++)
            buf[b][v] = zero;
    for (long t0 = 0; t0 < n; t0 += LANE_BLOCK) {
        const long nb = n - t0 < LANE_BLOCK ? n - t0 : LANE_BLOCK;
        for (long j = 0; j < kg; j++) {
            const double *row = x + j * n;
            if (reverse)
                for (long b = 0; b < nb; b++)
                    buf[b][j >> 2][j & 3] = row[n - 1 - t0 - b];
            else
                for (long b = 0; b < nb; b++)
                    buf[b][j >> 2][j & 3] = row[t0 + b];
        }
        for (long b = 0; b < nb; b++) {
            UNROLL
            for (long v = 0; v < nv; v++) {
                v4d xn = buf[b][v];
                UNROLL
                for (long s = 0; s < ns; s++) {
                    v4d x_new = c0[s][v] * xn + z0[s][v];
                    z0[s][v] = c1[s][v] * xn - c4[s][v] * x_new + z1[s][v];
                    z1[s][v] = c2[s][v] * xn - c5[s][v] * x_new;
                    xn = x_new;
                }
                buf[b][v] = xn;
            }
        }
        for (long j = 0; j < kg; j++) {
            double *row = x + j * n;
            if (reverse)
                for (long b = 0; b < nb; b++)
                    row[n - 1 - t0 - b] = buf[b][j >> 2][j & 3];
            else
                for (long b = 0; b < nb; b++)
                    row[t0 + b] = buf[b][j >> 2][j & 3];
        }
    }
    for (long s = 0; s < ns; s++) {
        for (long j = 0; j < kg; j++) {
            zi[(j * ns + s) * 2] = z0[s][j >> 2][j & 3];
            zi[(j * ns + s) * 2 + 1] = z1[s][j >> 2][j & 3];
        }
    }
}

/* x86-64 picks the AVX2 build or the baseline (SSE2) one when the library
   loads.  The AVX2 target does not enable FMA, and -ffp-contract=off
   forbids contraction in either build. */
#if defined(__has_attribute) && (defined(__x86_64__) || defined(__i386__)) \
    && defined(__GLIBC__)
#if __has_attribute(target_clones)
#define LANE_TARGETS __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef LANE_TARGETS
#define LANE_TARGETS
#endif

LANE_TARGETS
static void sosfilt_lanes(const double *sos, long ns, long kg, double *x,
                          long n, double *zi, int reverse) {
    /* With both counts constant the loops unroll and the state stays in
       registers: the serving shapes (two IQ rails, six render bands,
       two sections each) get their own copies, anything else runs the
       general loop. */
    const long nv = (kg + 3) / 4;
    switch (nv * 16 + ns) {
    case 16 + 2: lanes_run(1, 2, sos, kg, x, n, zi, reverse); break;
    case 32 + 2: lanes_run(2, 2, sos, kg, x, n, zi, reverse); break;
    default: lanes_run(nv, ns, sos, kg, x, n, zi, reverse); break;
    }
}

/* k = 1 has nothing to put beside it and keeps the scalar loop, as do
   cascades too long for the lane registers. */
void sosfilt_batch(const double *sos, long n_sections, long k, double *x,
                   long n, double *zi, int reverse) {
    if (k == 1 || n_sections > MAX_LANE_SECTIONS) {
        sosfilt_scalar(sos, n_sections, k, x, n, zi, reverse);
        return;
    }
    for (long g = 0; g < k; g += MAX_LANES) {
        const long kg = k - g < MAX_LANES ? k - g : MAX_LANES;
        sosfilt_lanes(sos + g * 6 * n_sections, n_sections, kg, x + g * n,
                      n, zi + g * 2 * n_sections, reverse);
    }
}

/* Banded DTW over z-normalised sequences r (n) and q (m).

   Same cells, adds and compares as repro.dsp.align's Python loop: the
   local cost is (r[i] - q[j])^2; a cell takes the smallest of up, left
   and diagonal (first wins ties, in that order) when that is finite;
   the backtrack from (n-1, m-1) steps to the first minimum of diagonal,
   up and left.  cost is (n, m) scratch.  The path is written start to
   end into path_r/path_q (room for n + m - 1 entries); returns its
   length, or -1 when the band never reaches (n-1, m-1). */
long dtw_banded(const double *r, long n, const double *q, long m,
                long band, double *cost, int64_t *path_r, int64_t *path_q) {
    const double inf = __builtin_inf();
    for (long t = 0; t < n * m; t++)
        cost[t] = inf;
    double d = r[0] - q[0];
    cost[0] = d * d;
    const long j_end = m < band + 1 ? m : band + 1;
    for (long j = 1; j < j_end; j++) {
        const double prev = cost[j - 1];
        if (prev != inf) {
            d = r[0] - q[j];
            cost[j] = d * d + prev;
        }
    }
    for (long i = 1; i < n; i++) {
        const long centre = (long)((double)(i * m) / (double)n);
        const long j_lo = centre - band > 0 ? centre - band : 0;
        const long j_hi = centre + band + 1 < m ? centre + band + 1 : m;
        double *row = cost + i * m;
        const double *up = row - m;
        for (long j = j_lo; j < j_hi; j++) {
            double best = up[j];
            if (j > 0) {
                double v = row[j - 1];
                if (v < best)
                    best = v;
                v = up[j - 1];
                if (v < best)
                    best = v;
            }
            if (best != inf) {
                d = r[i] - q[j];
                row[j] = d * d + best;
            }
        }
    }
    if (cost[n * m - 1] == inf)
        return -1;
    long i = n - 1, j = m - 1, len = 0;
    path_r[len] = i;
    path_q[len] = j;
    len++;
    while (i > 0 || j > 0) {
        long bi = -1, bj = -1;
        double best = 0.0;
        if (i > 0 && j > 0) {
            best = cost[(i - 1) * m + j - 1];
            bi = i - 1;
            bj = j - 1;
        }
        if (i > 0) {
            const double v = cost[(i - 1) * m + j];
            if (bi < 0 || v < best) {
                best = v;
                bi = i - 1;
                bj = j;
            }
        }
        if (j > 0) {
            const double v = cost[i * m + j - 1];
            if (bi < 0 || v < best) {
                best = v;
                bi = i;
                bj = j - 1;
            }
        }
        i = bi;
        j = bj;
        path_r[len] = i;
        path_q[len] = j;
        len++;
    }
    for (long a = 0, b = len - 1; a < b; a++, b--) {
        int64_t tr = path_r[a], tq = path_q[a];
        path_r[a] = path_r[b];
        path_q[a] = path_q[b];
        path_r[b] = tr;
        path_q[b] = tq;
    }
    return len;
}
"""

_CFLAGS = DEFAULT_CFLAGS

_lib: ctypes.CDLL | None = None
_load_attempted = False


def _build_library() -> ctypes.CDLL | None:
    """Compile (or reuse a cached build of) the kernels; None on failure."""
    lib = load_library("sosk", _C_SOURCE, _CFLAGS)
    if lib is None:
        return None
    lib.sosfilt_batch.argtypes = [
        ctypes.c_void_p,
        ctypes.c_long,
        ctypes.c_long,
        ctypes.c_void_p,
        ctypes.c_long,
        ctypes.c_void_p,
        ctypes.c_int,
    ]
    lib.sosfilt_batch.restype = None
    lib.dtw_banded.argtypes = [
        ctypes.c_void_p,
        ctypes.c_long,
        ctypes.c_void_p,
        ctypes.c_long,
        ctypes.c_long,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
    ]
    lib.dtw_banded.restype = ctypes.c_long
    return lib


def get_kernel() -> ctypes.CDLL | None:
    """The compiled kernels, building them on first call; None if unavailable."""
    global _lib, _load_attempted
    if not _load_attempted:
        _load_attempted = True
        try:
            _lib = _build_library()
        except Exception:  # pragma: no cover - defensive: never break serving
            _lib = None
    return _lib


def kernel_available() -> bool:
    return get_kernel() is not None


def sosfilt_interleaved(
    sos: np.ndarray, x: np.ndarray, zi: np.ndarray, reverse: bool = False
) -> None:
    """Filter ``k`` independent signals in place, side by side.

    ``sos`` is ``(k, n_sections, 6)``, ``x`` is ``(k, n)``, ``zi`` is
    ``(k, n_sections, 2)``; all three must be C-contiguous float64.  Each
    row of ``x`` is replaced by its filtered signal, bitwise-identical to
    a per-row ``scipy.signal.sosfilt`` call with the matching cascade,
    and ``zi`` holds each cascade's final state.  With ``k > 1`` the
    signals run in SIMD lanes, up to eight at a time; ``k = 1`` runs the
    scalar loop.  With ``reverse=True`` each row is consumed back-to-front
    and written back in place — equivalent to
    ``sosfilt(row[::-1])[::-1]`` with no reversal copies, which is the
    backward half of zero-phase filtering.  Raises ``RuntimeError`` if
    the kernel is unavailable — callers should gate on
    :func:`kernel_available`.
    """
    lib = get_kernel()
    if lib is None:  # pragma: no cover - exercised via fallback tests
        raise RuntimeError("compiled sosfilt kernel unavailable")
    k, n_sections, six = sos.shape
    if six != 6 or x.shape != (k, x.shape[1]) or zi.shape != (k, n_sections, 2):
        raise ValueError("inconsistent batch shapes")
    for arr in (sos, x, zi):
        if arr.dtype != np.float64 or not arr.flags.c_contiguous:
            raise ValueError("batch arrays must be C-contiguous float64")
    lib.sosfilt_batch(
        sos.ctypes.data,
        n_sections,
        k,
        x.ctypes.data,
        x.shape[1],
        zi.ctypes.data,
        int(reverse),
    )


def dtw_banded(
    r: np.ndarray, q: np.ndarray, band: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Compiled :func:`repro.dsp.align.dtw_path` core on normalised inputs.

    ``r`` and ``q`` are 1-D float64 sequences of length >= 2.  Returns
    ``(ref_idx, query_idx)`` as int64 arrays, or ``None`` when the band
    never reaches the last cell.  Raises ``RuntimeError`` if the kernel
    is unavailable — callers should gate on :func:`kernel_available`.
    """
    lib = get_kernel()
    if lib is None:  # pragma: no cover - exercised via fallback tests
        raise RuntimeError("compiled DTW kernel unavailable")
    r = np.ascontiguousarray(r, dtype=np.float64)
    q = np.ascontiguousarray(q, dtype=np.float64)
    n, m = r.size, q.size
    if r.ndim != 1 or q.ndim != 1 or n < 2 or m < 2:
        raise ValueError("DTW needs two 1-D sequences of length >= 2")
    cost = np.empty((n, m), dtype=np.float64)
    path_r = np.empty(n + m - 1, dtype=np.int64)
    path_q = np.empty(n + m - 1, dtype=np.int64)
    length = lib.dtw_banded(
        r.ctypes.data,
        n,
        q.ctypes.data,
        m,
        int(band),
        cost.ctypes.data,
        path_r.ctypes.data,
        path_q.ctypes.data,
    )
    if length < 0:
        return None
    return path_r[:length], path_q[:length]
