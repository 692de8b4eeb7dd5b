"""Banded linear algebra for penalized smoothing.

Everything here works on the pentadiagonal normal-equations matrix
M = diag(weights) + lam * D^T D, where D is the (n-2) x n discrete
second-difference operator with stencil (1, -2, 1) on a unit-spaced grid.
M is kept in band-compact form (main diagonal plus two upper
off-diagonals; the matrix is symmetric) and factorized once, by LAPACK's
banded Cholesky M = U^T U, the first time a solve or the hat diagonal
needs it. Both reuse that factor and run in O(n) time and memory: solves
by banded triangular substitution, the diagonal of M^{-1} by the band
selected-inverse recurrence (Hutchinson & de Hoog 1985, "Smoothing noisy
data with spline functions"; Eilers 2003, "A Perfect Smoother",
Anal. Chem. 75, which uses it for leave-one-out CV).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

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
    """Band-compact M = diag(weights) + lam * D^T D.

    ``main`` has length n, ``off1`` length n-1 (entries (i, i+1)) and
    ``off2`` length n-2 (entries (i, i+2)). The matrix is symmetric, so
    the lower bands are implied.
    """

    n: int
    main: np.ndarray = field(repr=False)
    off1: np.ndarray = field(repr=False)
    off2: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def toarray(self):
        m = np.diag(self.main)
        m += np.diag(self.off1, 1) + np.diag(self.off1, -1)
        m += np.diag(self.off2, 2) + np.diag(self.off2, -2)
        return m

    @cached_property
    def _cholesky(self):
        """Upper band Cholesky factor U (M = U^T U) in LAPACK storage.

        Row 2 holds U[i, i], row 1 from column 1 on U[i-1, i], and row 0
        from column 2 on U[i-2, i].

        Raises
        ------
        NotPositiveDefiniteError
            If a pivot U[i, i]^2 falls below the positive-definiteness
            tolerance.
        """
        ab = np.zeros((3, self.n))
        ab[0, 2:] = self.off2
        ab[1, 1:] = self.off1
        ab[2] = self.main
        try:
            u = cholesky_banded(ab, check_finite=False)
        except LinAlgError as exc:
            raise NotPositiveDefiniteError(f"system is not SPD: {exc}") from None
        pivots = np.square(u[2])
        # Negated comparison so that a NaN pivot is caught as well.
        bad = np.flatnonzero(~(pivots > PIVOT_RTOL * float(self.main.max())))
        if bad.size:
            i = int(bad[0])
            raise NotPositiveDefiniteError(
                f"non-positive pivot {pivots[i]:.3e} at row {i}; system is not SPD"
            )
        return u


def assemble_system(weights, lam: float) -> PentadiagonalSystem:
    """Assemble M = diag(weights) + lam * D^T D in band form.

    Parameters
    ----------
    weights : array-like
        Per-point data-fidelity weights, length n >= 3, all finite and
        >= 0.
    lam : float
        Penalty strength, finite and >= 0. With ``lam == 0`` every weight
        must be strictly positive, otherwise M is singular.
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
    return PentadiagonalSystem(
        n=n,
        main=weights + lam * np.convolve(ones, [1.0, 4.0, 1.0]),
        off1=lam * np.convolve(ones, [-2.0, -2.0]),
        off2=lam * ones,
        weights=weights,
    )


def _band_matvec(main, off1, off2, x):
    """M @ x from band diagonals; dtype follows the inputs."""
    out = main * x
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
    x = cho_solve_banded(factor, rhs, check_finite=False)
    main = system.main.astype(np.longdouble)
    off1 = system.off1.astype(np.longdouble)
    off2 = system.off2.astype(np.longdouble)
    rhs_ld = rhs.astype(np.longdouble)
    x = x.astype(np.longdouble)
    for _ in range(REFINE_STEPS):
        residual = rhs_ld - _band_matvec(main, off1, off2, x)
        step = cho_solve_banded(factor, residual.astype(float), check_finite=False)
        x = x + step.astype(np.longdouble)
    return x.astype(float)


def hat_diagonal(system: PentadiagonalSystem):
    """Diagonal of the hat matrix H = M^{-1} diag(weights).

    Since the weight matrix is diagonal, H_ii = (M^{-1})_ii * w_i, and
    each entry lies in [0, 1]. The diagonal of Z = M^{-1} comes from the
    system's banded Cholesky factor in O(n): U Z = U^{-T} is lower
    triangular with diagonal 1 / U[i, i], so on and above the diagonal

        Z[i, j] = (delta_ij / U[i, i] - U[i, i+1] Z[i+1, j]
                   - U[i, i+2] Z[i+2, j]) / U[i, i],

    and a sweep from i = n-1 down to 0 needs only the entries of Z
    within the band.
    """
    u = system._cholesky
    diag = u[2]
    c = (np.append(u[1, 1:], 0.0) / diag).tolist()
    e = (np.append(u[0, 2:], [0.0, 0.0]) / diag).tolist()
    inv_pivot = (1.0 / np.square(diag)).tolist()
    z = [0.0] * system.n
    z_11 = z_22 = 0.0  # Z[i+1, i+1], Z[i+2, i+2]
    z_12 = 0.0  # Z[i+1, i+2]
    for i in range(system.n - 1, -1, -1):
        z_02 = -(c[i] * z_12 + e[i] * z_22)
        z_01 = -(c[i] * z_11 + e[i] * z_12)
        z[i] = inv_pivot[i] - (c[i] * z_01 + e[i] * z_02)
        z_11, z_22, z_12 = z[i], z_11, z_01
    return np.array(z) * system.weights
