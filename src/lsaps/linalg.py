"""Banded linear algebra for penalized smoothing.

Everything here works on the pentadiagonal normal-equations matrix
M = diag(weights) + lam * D^T D, where D is the (n-2) x n discrete
second-difference operator with stencil (1, -2, 1) on a unit-spaced grid.
M is symmetric, so it is stored once, as its upper band in the (3, n)
layout LAPACK consumes (Eilers 2003, "A Perfect Smoother", Anal. Chem.
75): row 2 holds the main diagonal, row 1 from column 1 on the first
superdiagonal and row 0 from column 2 on the second. ``assembler`` checks
a weight array once and fills that array for each lam of a grid from
scalars. The same array is factorized once, by LAPACK's banded Cholesky
``dpbtrf`` (M = U^T U), the first time a solve or the hat diagonal needs
it, and read as-is by the residuals of iterative refinement. Solves and
the diagonal of M^{-1} reuse the factor and run in O(n) time and memory:
solves by LAPACK's banded substitution ``dpbtrs``, refined with
long-double residuals until a correction falls below the final float64
rounding (see ``solve``), the diagonal of M^{-1} by the band
selected-inverse recurrence (Hutchinson & de Hoog 1985, "Smoothing noisy
data with spline functions"; Eilers 2003, which uses it for leave-one-out
CV). That recurrence is one unit triangular system in the 3n band entries
Z[i, i], Z[i, i+1] and Z[i, i+2] of Z = M^{-1}, unknown 3i + k holding
Z[i, i+k], with bandwidth 4; one LAPACK ``dtbtrs`` call solves it, its
transpose stored in (5, 3n) lower band storage (see ``hat_diagonal``).
The LAPACK routines are called directly, and their ``info`` is mapped to
this package's errors here.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

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

# The most iterative-refinement steps of a solve, with long-double residuals.
REFINE_STEPS = 2

# Refinement stops after a correction d with max|d| <= REFINE_TOL * max|x0|,
# x0 the unrefined solution: eps**2 / (8 eps_ld), 5.7e-14 where long
# double has a 64-bit mantissa, and eps / 8 where it is float64 (``solve``).
REFINE_TOL = float(np.finfo(float).eps ** 2 / (8 * np.finfo(np.longdouble).eps))


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
            If a pivot U[i, i]^2 is NaN, or is at or below the
            conditioning limit ``PIVOT_RTOL`` times the largest diagonal
            entry; the message says which. A pivot that LAPACK finds not
            positive is below that limit: M is positive semidefinite by
            construction, so it is singular or too ill-conditioned for
            float64, for instance when lam is so large that the weights
            round away beside it.
        """
        u, info = dpbtrf(self.ab)
        if info < 0:
            raise LinAlgError(f"dpbtrf returned info = {info}")
        limit = PIVOT_RTOL * float(self.ab[2].max())
        if info > 0:
            # LAPACK stops at the first pivot that is not positive, in row
            # info - 1, and leaves it there.
            raise _pivot_error(info - 1, float(u[2, info - 1]), limit)
        # Every U[i, i] is a square root, so the least pivot is the square
        # of the least U[i, i]. Negated, so that a NaN pivot fails as well.
        least = float(u[2].min())
        if not least * least > limit:
            pivots = np.square(u[2])
            i = int(np.flatnonzero(np.isnan(pivots) | (pivots <= limit))[0])
            raise _pivot_error(i, float(pivots[i]), limit)
        return u


def _pivot_error(i: int, pivot: float, limit: float):
    """The error for a failed pivot U[i, i]^2 = ``pivot``."""
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
    """Check ``weights`` once; return lam -> ``assemble_system(weights, lam)``.

    The returned function checks lam and raises exactly as
    ``assemble_system`` does, so each lam of a grid keeps its own error,
    while the weights are checked once per grid.

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

    def assemble(lam) -> PentadiagonalSystem:
        if not math.isfinite(lam):
            raise InvalidConfigError(f"lam must be finite, got {lam}")
        if lam < 0:
            raise InvalidConfigError(f"lam must be >= 0, got {lam}")
        if lam == 0 and has_zero:
            raise SingularSystemError("lam = 0 with a zero weight gives a singular system")
        ab = np.empty((3, n))
        ab[0, :2] = ab[1, 0] = 0.0
        ab[0, 2:] = lam
        diag = ab[2]
        with np.errstate(over="ignore"):
            ab[1, 1:] = lam * -4.0
            ab[1, 1] = ab[1, -1] = lam * -2.0
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
        return PentadiagonalSystem(ab=ab, weights=weights)

    return assemble


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

    ``assembler`` does the same for a grid of lam, checking the weights
    once.
    """
    return assembler(weights)(lam)


def _band_matvec(ab, x):
    """M @ x from upper band storage; dtype follows ``x``."""
    off1, off2 = ab[1, 1:], ab[0, 2:]
    out = ab[2] * x
    out[:-1] += off1 * x[1:]
    out[1:] += off1 * x[:-1]
    out[:-2] += off2 * x[2:]
    out[2:] += off2 * x[:-2]
    return out


def _substitute(u, b, overwrite_b=False):
    """U^{-1} U^{-T} b by LAPACK's banded substitution."""
    x, info = dpbtrs(u, b, overwrite_b=overwrite_b)
    if info != 0:
        # U comes from dpbtrf, so only a bad argument sets info.
        raise LinAlgError(f"dpbtrs returned info = {info}")
    return x


def solve(system: PentadiagonalSystem, rhs):
    """Solve M x = rhs for one finite right-hand side of length n.

    Iterative refinement with extended-precision residuals keeps the
    forward error small even for extreme penalty values, where the
    normal-equations matrix has condition number near 1/eps. Each step
    solves M d = rhs - M x with the float64 factor, the residual formed
    in long double, and adds d to x in long double.

    Refinement stops after at most ``REFINE_STEPS`` steps, or as soon as
    a correction has max|d| <= tau * max|x0|, x0 the unrefined solution
    and tau = ``REFINE_TOL`` = eps^2 / (8 eps_ld), with eps and eps_ld
    the unit roundoffs of float64 and long double. The first correction
    measures the error of x0, which is about cond(M) eps max|x0|. After
    it, the error left is dominated by that of the long-double residual,
    about cond(M) eps_ld max|x| = max|d| eps_ld / eps, which for
    max|d| <= tau is at most eps / 8 of max|x|: below the final rounding
    to float64, so a further step would not change the result by more
    than about one ulp. On x86-64 tau is 5.7e-14, and most solves with
    lam up to about 100 stop after one step; where long double is
    float64, tau = eps / 8 and every solve takes both steps.

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
    if not np.isfinite(rhs).all():
        i = int(np.flatnonzero(~np.isfinite(rhs))[0])
        raise ValueError(f"rhs must be finite, got {rhs[i]} at index {i}")
    u = system._cholesky
    x = _substitute(u, rhs)
    tol = REFINE_TOL * float(np.abs(x).max())
    # Float64 bands and rhs promote exactly against the long-double x, so
    # the residual is formed in extended precision without copying them.
    x = x.astype(np.longdouble)
    for _ in range(REFINE_STEPS):
        residual = _band_matvec(system.ab, x)
        np.subtract(rhs, residual, out=residual)
        d = _substitute(u, residual.astype(float), overwrite_b=True)
        x += d
        if float(np.abs(d).max()) <= tol:
            break
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
