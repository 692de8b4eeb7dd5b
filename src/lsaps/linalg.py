"""Banded linear algebra for penalized smoothing.

Everything here works on the pentadiagonal normal-equations matrix
M = diag(weights) + lam * D^T D, where D is the (n-2) x n discrete
second-difference operator with stencil (1, -2, 1) on a unit-spaced grid.
M is symmetric, so it is stored once, as its upper band in the (3, n)
layout LAPACK consumes (Eilers 2003, "A Perfect Smoother", Anal. Chem.
75): row 2 holds the main diagonal, row 1 from column 1 on the first
superdiagonal and row 0 from column 2 on the second. The same array is
factorized once, by LAPACK's banded Cholesky M = U^T U, the first time a
solve or the hat diagonal needs it, and read as-is by the residuals of
iterative refinement. Solves and the diagonal of M^{-1} reuse the factor
and run in O(n) time and memory: solves by banded triangular
substitution, the diagonal of M^{-1} by the band selected-inverse
recurrence (Hutchinson & de Hoog 1985, "Smoothing noisy data with spline
functions"; Eilers 2003, which uses it for leave-one-out CV). That
recurrence is one unit triangular system in the 3n band entries Z[i, i],
Z[i, i+1] and Z[i, i+2] of Z = M^{-1}, unknown 3i + k holding Z[i, i+k],
with bandwidth 4; one LAPACK ``dtbtrs`` call solves it, its transpose
stored in (5, 3n) lower band storage (see ``hat_diagonal``).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dtbtrs

from .errors import (
    InvalidConfigError,
    InvalidSizeError,
    NotPositiveDefiniteError,
    SingularSystemError,
)

# Pivots below this fraction of the largest main-diagonal entry are
# treated as a loss of positive definiteness.
PIVOT_RTOL = 1e-14

# Iterative-refinement steps of every solve, with long-double residuals.
REFINE_STEPS = 2


@dataclass(frozen=True)
class PentadiagonalSystem:
    """M = diag(weights) + lam * D^T D in LAPACK upper band storage.

    ``ab`` has shape (3, n): ``ab[2]`` is the main diagonal, ``ab[1, 1:]``
    the entries (i, i+1) and ``ab[0, 2:]`` the entries (i, i+2); the
    lower bands are implied by symmetry. ``weights`` is the diagonal A
    of the hat matrix H = M^{-1} A, the caller's own array.
    """

    ab: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.ab.shape[1]

    @cached_property
    def _cholesky(self):
        """Upper band Cholesky factor U (M = U^T U) in the layout of ``ab``.

        Row 2 holds U[i, i], row 1 from column 1 on U[i-1, i], and row 0
        from column 2 on U[i-2, i].

        Raises
        ------
        NotPositiveDefiniteError
            If a pivot U[i, i]^2 is not positive, or is positive but
            below the conditioning limit ``PIVOT_RTOL`` times the largest
            diagonal entry; the message says which.
        """
        try:
            u = cholesky_banded(self.ab, check_finite=False)
        except LinAlgError as exc:
            raise NotPositiveDefiniteError(f"system is not SPD: {exc}") from None
        pivots = np.square(u[2])
        # Negated comparisons so that a NaN pivot is caught as well.
        bad = np.flatnonzero(~(pivots > 0))
        if bad.size:
            i = int(bad[0])
            raise NotPositiveDefiniteError(
                f"pivot {pivots[i]:.3e} at row {i} is not positive; system is not SPD"
            )
        limit = PIVOT_RTOL * float(self.ab[2].max())
        low = np.flatnonzero(pivots <= limit)
        if low.size:
            i = int(low[0])
            raise NotPositiveDefiniteError(
                f"pivot {pivots[i]:.3e} at row {i} is below the conditioning limit "
                f"{limit:.3e} ({PIVOT_RTOL:g} x the largest diagonal entry); "
                "the system is too ill-conditioned to solve"
            )
        return u


def assemble_system(weights, lam: float) -> PentadiagonalSystem:
    """Assemble M = diag(weights) + lam * D^T D in upper band storage.

    Parameters
    ----------
    weights : array-like
        Per-point data-fidelity weights, length n >= 3, all finite and
        >= 0.
    lam : float
        Penalty strength, finite and >= 0. With ``lam == 0`` every weight
        must be strictly positive, otherwise M is singular. A lam so large
        that an entry of M overflows float64 raises ``InvalidConfigError``.
    """
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    if n < 3:
        raise InvalidSizeError(f"system needs n >= 3, got n={n}")
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        raise ValueError(f"weights must be finite, got {weights[bad[0]]} at index {bad[0]}")
    if not math.isfinite(lam):
        raise InvalidConfigError(f"lam must be finite, got {lam}")
    if lam < 0:
        raise InvalidConfigError(f"lam must be >= 0, got {lam}")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if lam == 0 and np.any(weights == 0):
        raise SingularSystemError("lam = 0 with a zero weight gives a singular system")
    # Diagonals 0, 1, 2 of D^T D: each row of D adds its stencil's
    # products (1, 4, 1), (-2, -2) and (1) to the three bands.
    ones = np.ones(n - 2)
    ab = np.zeros((3, n))
    ab[0, 2:] = lam
    with np.errstate(over="ignore"):
        ab[1, 1:] = lam * np.convolve(ones, [-2.0, -2.0])
        ab[2] = weights + lam * np.convolve(ones, [1.0, 4.0, 1.0])
    # The main diagonal holds the largest entries of every band.
    if not np.isfinite(ab[2]).all():
        raise InvalidConfigError(
            f"lam = {lam:g} is too large: entries of M = diag(weights) + lam * D^T D "
            "overflow float64"
        )
    return PentadiagonalSystem(ab=ab, weights=weights)


def _band_matvec(ab, x):
    """M @ x from upper band storage; dtype follows ``x``."""
    off1, off2 = ab[1, 1:], ab[0, 2:]
    out = ab[2] * x
    out[:-1] += off1 * x[1:]
    out[1:] += off1 * x[:-1]
    out[:-2] += off2 * x[2:]
    out[2:] += off2 * x[:-2]
    return out


def solve(system: PentadiagonalSystem, rhs):
    """Solve M x = rhs for one finite right-hand side of length n.

    Iterative refinement with extended-precision residuals keeps the
    forward error small even for extreme penalty values, where the
    normal-equations matrix has condition number near 1/eps.

    Raises
    ------
    ValueError
        If ``rhs`` is not 1-d of length n, or not finite.
    NotPositiveDefiniteError
        If a pivot falls below the positive-definiteness tolerance.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (system.n,):
        raise ValueError(f"rhs must have shape ({system.n},), got {rhs.shape}")
    bad = np.flatnonzero(~np.isfinite(rhs))
    if bad.size:
        raise ValueError(f"rhs must be finite, got {rhs[bad[0]]} at index {bad[0]}")
    factor = (system._cholesky, False)
    # Float64 bands and rhs promote exactly against the long-double x, so
    # the residual is formed in extended precision without copying them.
    x = cho_solve_banded(factor, rhs, check_finite=False).astype(np.longdouble)
    for _ in range(REFINE_STEPS):
        residual = rhs - _band_matvec(system.ab, x)
        x += cho_solve_banded(factor, residual.astype(float), check_finite=False)
    return x.astype(float)


def hat_diagonal(system: PentadiagonalSystem):
    """Diagonal of the hat matrix H = M^{-1} diag(weights).

    Since the weight matrix is diagonal, H_ii = (M^{-1})_ii * w_i, and
    each entry lies in [0, 1]. The diagonal of Z = M^{-1} comes from the
    system's banded Cholesky factor in O(n): U Z = U^{-T} is lower
    triangular with diagonal 1 / U[i, i], so on and above the diagonal

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
    u = system._cholesky
    n = system.n
    diag = u[2]
    band = np.zeros((n, 3, 5))
    c, e = band[:, 0, 1], band[:, 0, 2]
    np.divide(u[1, 1:], diag[:-1], out=c[:-1])
    np.divide(u[0, 2:], diag[:-2], out=e[:-2])
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
