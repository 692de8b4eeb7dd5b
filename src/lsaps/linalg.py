"""Banded linear algebra for penalized smoothing.

Everything here works on the pentadiagonal normal-equations matrix
M = diag(weights) + lam * D^T D, where D is the (n-2) x n discrete
second-difference operator with stencil (1, -2, 1) on a unit-spaced grid
(Eilers 2003, "A Perfect Smoother", Anal. Chem. 75). M is symmetric, so
it is stored once, as its lower band in the (3, n) layout LAPACK
consumes: row 0 holds the main diagonal, row 1 up to column n-2 the first
subdiagonal and row 2 up to column n-3 the second. LAPACK's banded
Cholesky gives the same factor from either band, faster from the lower.
``assembler`` checks a weight array once; for each lam of a grid it
fills the bands from scalars, factorizes them at once by ``dpbtrf``
(M = L L^T) and returns the factor as a ``Factor``, without the bands.
Solves and the diagonal of M^{-1} reuse the factor and run in O(n)
time and memory: solves by LAPACK's banded substitution ``dpbtrs``,
refined in float64 toward the exact operator diag(weights) + lam D^T D,
not toward its rounded bands (see ``solve``), the diagonal of M^{-1} by
the band selected-inverse recurrence (Hutchinson & de Hoog 1985,
"Smoothing noisy data with spline functions"; Eilers 2003, which uses it
for leave-one-out CV). That recurrence is one unit triangular system in
the 3n band entries Z[i, i], Z[i, i+1] and Z[i, i+2] of Z = M^{-1},
unknown 3i + k holding Z[i, i+k], with bandwidth 4; one LAPACK
``dtbtrs`` call solves it, its transpose stored in (5, 3n) lower band
storage (see ``hat_diagonal``). The LAPACK routines are called directly,
and their ``info`` is mapped to this package's errors here.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpbtrf, dpbtrs, dtbtrs

from .errors import (
    InvalidConfigError,
    InvalidSizeError,
    NotPositiveDefiniteError,
    SingularSystemError,
)

# Pivots below this fraction of the largest main-diagonal entry are
# treated as a loss of positive definiteness.
PIVOT_RTOL = 1e-14

# The most iterative-refinement corrections of a solve.
REFINE_STEPS = 6

# Refinement stops once the error estimate of x_k, max|d_k|^2 / max|d_{k-1}|,
# is at most REFINE_TOL * max|x_k|: eps / 8, below the final rounding (``solve``).
REFINE_TOL = float(np.finfo(float).eps / 8)


class Factor(NamedTuple):
    """The lower band Cholesky factor L of M = diag(weights) + lam * D^T D
    (M = L L^T), with the weights and lam it was made from.

    ``u`` has shape (3, n): row 0 holds L[i, i], row 1 up to column n-2
    L[i+1, i], and row 2 up to column n-3 L[i+2, i]. ``weights`` is the
    diagonal A of the hat matrix H = M^{-1} A, the caller's own array;
    with ``lam`` it is the exact operator that ``solve`` refines toward.
    """

    u: np.ndarray
    weights: np.ndarray
    lam: float

    @property
    def n(self) -> int:
        return self.u.shape[1]


def _cholesky(ab):
    """Lower band Cholesky factor of the lower band storage ``ab`` of M,
    in the same layout.

    Raises
    ------
    NotPositiveDefiniteError
        If a pivot L[i, i]^2 is NaN, or is at or below the conditioning
        limit ``PIVOT_RTOL`` times the largest diagonal entry; the
        message says which. A pivot that LAPACK finds not positive is
        below that limit: M is positive semidefinite by construction, so
        it is singular or too ill-conditioned for float64, for instance
        when lam is so large that the weights round away beside it.
    """
    u, info = dpbtrf(ab, lower=1)
    if info < 0:
        raise LinAlgError(f"dpbtrf returned info = {info}")
    limit = PIVOT_RTOL * float(ab[0].max())
    if info > 0:
        # LAPACK stops at the first pivot that is not positive, in row
        # info - 1, and leaves it there.
        raise _pivot_error(info - 1, float(u[0, info - 1]), limit)
    # Every L[i, i] is a square root, so the least pivot is the square
    # of the least L[i, i]. Negated, so that a NaN pivot fails as well.
    least = float(u[0].min())
    if not least * least > limit:
        pivots = np.square(u[0])
        i = int(np.flatnonzero(np.isnan(pivots) | (pivots <= limit))[0])
        raise _pivot_error(i, float(pivots[i]), limit)
    return u


def _pivot_error(i: int, pivot: float, limit: float):
    """The error for a failed pivot L[i, i]^2 = ``pivot``."""
    if math.isnan(pivot):
        return NotPositiveDefiniteError(
            f"pivot {pivot:.3e} at row {i} is not positive; system is not SPD"
        )
    return NotPositiveDefiniteError(
        f"pivot {pivot:.3e} at row {i} is below the conditioning limit "
        f"{limit:.3e} ({PIVOT_RTOL:g} x the largest diagonal entry); "
        "the system is too ill-conditioned to solve"
    )


def assembler(weights):
    """Check ``weights`` once; return lam -> the ``Factor`` of
    M = diag(weights) + lam * D^T D, factorized as it is assembled.

    ``weights`` are the per-point data-fidelity weights, n >= 3 of them,
    all finite and >= 0. The returned function checks each lam on its
    own, so each lam of a grid keeps its own error, while the weights are
    checked once per grid. It raises ``InvalidConfigError`` for a lam
    that is not finite, is negative, or makes an entry of M overflow
    float64; ``SingularSystemError`` for lam = 0 with a zero weight; and
    ``NotPositiveDefiniteError`` for a failed pivot (``_cholesky``).

    Raises
    ------
    InvalidSizeError
        If n < 3.
    ValueError
        If a weight is not finite or is negative.
    """
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    if n < 3:
        raise InvalidSizeError(f"system needs n >= 3, got n={n}")
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        raise ValueError(f"weights must be finite, got {weights[bad[0]]} at index {bad[0]}")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    has_zero = not weights.all()
    # Each row of D adds its stencil's products (1, 4, 1), (-2, -2) and
    # (1) to the three bands of D^T D: the main diagonal is
    # (1, 5, 6, ..., 6, 5, 1), or (1, 5, 5, 1) at n = 4 and (1, 4, 1) at
    # n = 3, the first band (-2, -4, ..., -4, -2) and the second all ones.
    second = 4.0 if n == 3 else 5.0

    def assemble(lam) -> Factor:
        if not math.isfinite(lam):
            raise InvalidConfigError(f"lam must be finite, got {lam}")
        if lam < 0:
            raise InvalidConfigError(f"lam must be >= 0, got {lam}")
        if lam == 0 and has_zero:
            raise SingularSystemError("lam = 0 with a zero weight gives a singular system")
        ab = np.empty((3, n))
        ab[2, -2:] = ab[1, -1] = 0.0
        ab[2, :-2] = lam
        diag = ab[0]
        with np.errstate(over="ignore"):
            ab[1, :-1] = lam * -4.0
            ab[1, 0] = ab[1, -2] = lam * -2.0
            np.add(weights, lam * 6.0, out=diag)
            diag[1] = weights[1] + lam * second
            diag[-2] = weights[-2] + lam * second
            diag[0] = weights[0] + lam
            diag[-1] = weights[-1] + lam
        # The main diagonal holds the largest entries of every band; its
        # entries are sums of non-negative numbers, so never NaN.
        if not math.isfinite(diag.max()):
            raise InvalidConfigError(
                f"lam = {lam:g} is too large: entries of M = diag(weights) + lam * D^T D "
                "overflow float64"
            )
        return Factor(_cholesky(ab), weights, lam)

    return assemble


def _substitute(u, b, overwrite_b=False):
    """L^{-T} L^{-1} b by LAPACK's banded substitution."""
    x, info = dpbtrs(u, b, lower=1, overwrite_b=overwrite_b)
    if info != 0:
        # L comes from dpbtrf, so only a bad argument sets info.
        raise LinAlgError(f"dpbtrs returned info = {info}")
    return x


def _residual(system: Factor, rhs, x):
    """rhs - (diag(weights) + lam * D^T D) x in float64, from the weights
    and lam themselves rather than from the rounded bands of M.

    D^T D x is formed before lam scales it: it is of the size of rhs,
    while lam * D x alone can be far larger, and subtracting it in parts
    would round at that larger size.
    """
    dx = np.diff(x, 2)
    # D^T v = (v, 0, 0) - 2 (0, v, 0) + (0, 0, v).
    t = np.empty_like(x)
    t[:-2] = dx
    t[-2:] = 0.0
    t[2:] += dx
    dx *= 2.0
    t[1:-1] -= dx
    t *= system.lam
    r = rhs - system.weights * x
    r -= t
    return r


def solve(system: Factor, rhs):
    """Solve M x = rhs for one finite right-hand side of length n.

    The factor is that of the rounded bands, and at large lam they are not
    the problem: fl(w_i + 6 lam) keeps only the bits of w_i above ulp(6 lam),
    and x0 carries an error of about cond(M) eps max|x|. Iterative
    refinement (Higham, "Accuracy and Stability of Numerical Algorithms",
    ch. 12) removes both. Each correction d_k solves M d_k = r with the
    factor, where r = rhs - w * x - lam * D^T (D x) is formed in float64
    from ``np.diff``, so it measures the distance to the exact problem.

    Refinement contracts by a roughly constant factor max|d_k| /
    max|d_{k-1}|, so max|d_k|^2 / max|d_{k-1}| estimates the error left in
    x_k = x_{k-1} + d_k, with d_0 := x_0. It stops once that estimate is at
    most ``REFINE_TOL`` = eps / 8 of max|x_k|, below the final rounding. It
    also stops when a correction is zero or fails to halve, max|d_k| >
    max|d_{k-1}| / 2: such a d_k is rounding noise, and it is dropped. At
    most ``REFINE_STEPS`` corrections are taken. On n = 300 systems with
    weights in [0.05, 5], a solve with lam up to 1e6 stops after one
    correction, at 1e9 after one or two and at 1e13 after three or four.

    Raises
    ------
    ValueError
        If ``rhs`` is not 1-d of length n, or not finite.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (system.n,):
        raise ValueError(f"rhs must have shape ({system.n},), got {rhs.shape}")
    if not np.isfinite(rhs).all():
        i = int(np.flatnonzero(~np.isfinite(rhs))[0])
        raise ValueError(f"rhs must be finite, got {rhs[i]} at index {i}")
    u = system.u
    x = _substitute(u, rhs)
    last = float(np.abs(x).max())
    for _ in range(REFINE_STEPS):
        d = _substitute(u, _residual(system, rhs, x), overwrite_b=True)
        size = float(np.abs(d).max())
        if not 0.0 < size <= last / 2:
            break
        x += d
        # The estimate size**2 / last, formed so that it cannot overflow.
        if size * (size / last) <= REFINE_TOL * float(np.abs(x).max()):
            break
        last = size
    return x


def hat_diagonal(system: Factor):
    """Diagonal of the hat matrix H = M^{-1} diag(weights).

    Since the weight matrix is diagonal, H_ii = (M^{-1})_ii * w_i, and
    each entry lies in [0, 1]. The diagonal of Z = M^{-1} comes from the
    banded Cholesky factor ``system.u`` in O(n). With U = L^T, whose entry
    U[i, i+k] = L[i+k, i] is row k, column i of the factor's band storage,
    U Z = U^{-T} is lower triangular with diagonal 1 / U[i, i], so on and
    above the diagonal

        Z[i, j] = (delta_ij / U[i, i] - U[i, i+1] Z[i+1, j]
                   - U[i, i+2] Z[i+2, j]) / U[i, i].

    With c_i = U[i, i+1] / U[i, i] and e_i = U[i, i+2] / U[i, i], zero
    past the end, the three band entries of row i are

        Z[i, i+2] = -(c_i Z[i+1, i+2] + e_i Z[i+2, i+2]),
        Z[i, i+1] = -(c_i Z[i+1, i+1] + e_i Z[i+1, i+2]),
        Z[i, i]   = 1 / U[i, i]^2 - (c_i Z[i, i+1] + e_i Z[i, i+2]).

    In the 3n unknowns v[3i] = Z[i, i], v[3i+1] = Z[i, i+1] and
    v[3i+2] = Z[i, i+2] this is one system A v = r, unit upper triangular
    with bandwidth 4, where r[3i] = 1 / U[i, i]^2 and the other entries
    of r are zero. LAPACK's ``dtbtrs`` solves it by back substitution:
    A^T is passed in lower band storage of shape (5, 3n), whose column j
    holds A[j, j+k] in row k, as the transposed, Fortran-contiguous view
    of a C-ordered (n, 3, 5) buffer, so no copy is made.
    """
    u = system.u
    n = system.n
    diag = u[0]
    band = np.zeros((n, 3, 5))
    c, e = band[:, 0, 1], band[:, 0, 2]
    np.divide(u[1, :-1], diag[:-1], out=c[:-1])
    np.divide(u[2, :-2], diag[:-2], out=e[:-2])
    band[:, 1, 2] = band[:, 2, 2] = c
    band[:, 1, 3] = band[:, 2, 4] = e
    rhs = np.zeros((n, 3))
    np.divide(1.0, np.square(diag), out=rhs[:, 0])
    v, info = dtbtrs(
        band.reshape(3 * n, 5).T, rhs.reshape(3 * n, 1),
        uplo="L", trans="T", diag="U", overwrite_b=True,
    )
    if info != 0:
        # A unit diagonal is never singular: only a bad argument sets info.
        raise LinAlgError(f"dtbtrs returned info = {info}")
    return v[0::3, 0] * system.weights
