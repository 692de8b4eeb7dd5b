"""A high-precision banded Cholesky oracle for M = diag(w) + lam * D^T D.

It builds the bands of the exact problem from the float64 weights and lam
in mpmath, not from the rounded float64 bands of an assembled system,
factors M = U^T U at ``DPS`` digits in O(n), and returns the solution of
M x = rhs and the diagonal of M^{-1}, each rounded once to float64.
"""

import mpmath
import numpy as np

DPS = 60


def _bands(w, lam):
    """Exact bands (M[i, i], M[i, i+1], M[i, i+2]) as mpmath numbers."""
    n = len(w)
    # D^T D from the stencil (1, -2, 1) of each row of D, in integers.
    main, first = [0] * n, [0] * n
    for r in range(n - 2):
        main[r] += 1
        main[r + 1] += 4
        main[r + 2] += 1
        first[r] -= 2
        first[r + 1] -= 2
    lam = mpmath.mpf(float(lam))
    return (
        [mpmath.mpf(float(w[i])) + lam * main[i] for i in range(n)],
        [lam * first[i] for i in range(n)],
        [lam if i + 2 < n else mpmath.mpf(0) for i in range(n)],
    )


def _factor(m0, m1, m2):
    """Bands (U[i, i], U[i, i+1], U[i, i+2]) of the upper Cholesky factor."""
    n = len(m0)
    mpf = mpmath.mpf
    u0, u1, u2 = [mpf(0)] * n, [mpf(0)] * n, [mpf(0)] * n
    for i in range(n):
        s = m0[i]
        if i >= 1:
            s -= u1[i - 1] ** 2
        if i >= 2:
            s -= u2[i - 2] ** 2
        u0[i] = mpmath.sqrt(s)
        if i + 1 < n:
            t = m1[i]
            if i >= 1:
                t -= u1[i - 1] * u2[i - 1]
            u1[i] = t / u0[i]
        if i + 2 < n:
            u2[i] = m2[i] / u0[i]
    return u0, u1, u2


def solve_and_inverse_diagonal(w, lam, rhs, dps=DPS):
    """(x, diag(M^{-1})) of M = diag(w) + lam * D^T D, at ``dps`` digits."""
    n = len(w)
    with mpmath.workdps(dps):
        u0, u1, u2 = _factor(*_bands(w, lam))
        # U^T z = rhs, then U x = z.
        z = [mpmath.mpf(0)] * n
        for i in range(n):
            s = mpmath.mpf(float(rhs[i]))
            if i >= 1:
                s -= u1[i - 1] * z[i - 1]
            if i >= 2:
                s -= u2[i - 2] * z[i - 2]
            z[i] = s / u0[i]
        x = [mpmath.mpf(0)] * (n + 2)
        for i in range(n - 1, -1, -1):
            x[i] = (z[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2]) / u0[i]
        # Selected inverse from the bottom row up: Z[i, i], Z[i, i+1] and
        # Z[i, i+2] from the entries of Z = M^{-1} already found below.
        diag = [mpmath.mpf(0)] * n
        z11 = z22 = z12 = mpmath.mpf(0)  # Z[i+1, i+1], Z[i+2, i+2], Z[i+1, i+2]
        for i in range(n - 1, -1, -1):
            c, e = u1[i] / u0[i], u2[i] / u0[i]
            z02 = -(c * z12 + e * z22)
            z01 = -(c * z11 + e * z12)
            diag[i] = 1 / u0[i] ** 2 - (c * z01 + e * z02)
            z11, z22, z12 = diag[i], z11, z01
        return np.array([float(v) for v in x[:n]]), np.array([float(v) for v in diag])
