"""A 60-digit banded Cholesky oracle for M = diag(w) + lam * D^T D.

It reads the exact float64 bands of an assembled system (the layout of
``linalg.PentadiagonalSystem.ab``), factors M = U^T U in mpmath at
``DPS`` digits in O(n), and returns the solution of M x = rhs and the
diagonal of M^{-1}, each rounded once to float64.
"""

import mpmath
import numpy as np

DPS = 60


def _factor(ab):
    """Bands (U[i, i], U[i, i+1], U[i, i+2]) of the upper Cholesky factor."""
    n = ab.shape[1]
    mpf = mpmath.mpf
    u0, u1, u2 = [mpf(0)] * n, [mpf(0)] * n, [mpf(0)] * n
    for i in range(n):
        s = mpf(float(ab[2, i]))
        if i >= 1:
            s -= u1[i - 1] ** 2
        if i >= 2:
            s -= u2[i - 2] ** 2
        u0[i] = mpmath.sqrt(s)
        if i + 1 < n:
            t = mpf(float(ab[1, i + 1]))
            if i >= 1:
                t -= u1[i - 1] * u2[i - 1]
            u1[i] = t / u0[i]
        if i + 2 < n:
            u2[i] = mpf(float(ab[0, i + 2])) / u0[i]
    return u0, u1, u2


def solve_and_inverse_diagonal(ab, rhs):
    """(x, diag(M^{-1})) of the system in upper band storage ``ab``."""
    n = ab.shape[1]
    with mpmath.workdps(DPS):
        u0, u1, u2 = _factor(ab)
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
