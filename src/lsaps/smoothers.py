"""The smoothing algorithms: penalized (PS), locally self-adjustive
penalized (LSA-PS), and the Savitzky-Golay and Gaussian-convolution
baselines.

Both penalized smoothers are one formula, x = (A + lam * D^T D)^{-1} A y
with a diagonal weight matrix A and lam = parameter * scale. PS is the
case A = I, scale = 1. LSA-PS builds A from local curvature, optionally
clips it at its median, and takes scale = median(A) with the pre-clip
median. ``penalized_weights`` turns a method into (A, scale); the
smoothers and the CV selection in ``select`` share it.

Every smoother, the CV selection and the peak detector take y through
``to_unit``, which checks that y is 1-d and finite and scales it by a
power of two to unit size, so squared curvature and sums of a few
entries neither overflow nor underflow. A smoothed signal goes back
through ``from_unit``, which raises ``ResultOverflowError`` where it
exceeds float64.

``grid_blocks`` is the one method dispatch: it smooths y with every
parameter of a grid, a block of parameters at a time, and does the work
that the parameters share once. Each block comes with its good fits
stacked as the rows of one array, so that a caller can score them
together. ``smooth`` is its one-parameter case, and each named smoother
is the one-parameter case of ``smooth``, so a fit taken alone and the
same fit taken in a grid are the same bits.

The Savitzky-Golay baseline is a local least-squares polynomial fit, an
orthogonal projection built with numpy alone from the QR factor of a
small Chebyshev basis. One QR per window serves every order of a grid,
because Gram-Schmidt is nested, and the basis is cached per (window, top
order). The interior fits of every order of a window come from one
matrix product, the kernels of all orders times the sliding windows of
y, taken in column chunks at fixed offsets; a fit taken alone takes the
same product and keeps one row.
"""

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import linalg
from .errors import (DegenerateSignalError, InvalidConfigError, InvalidSizeError,
                     ResultOverflowError)
from .localfit import local_quadratic_curvature


# Method names of the CLI and the benchmark; CV supports the penalized ones.
PENALIZED = ("ps", "lsa-ps")
METHODS = PENALIZED + ("sg", "gaussian")


def to_unit(y):
    """(y * 2**-e, e) with max|y| = m * 2**e, m in [0.5, 1), or e = 0 for
    y = 0; the scaled array is a fresh copy. Raises ValueError for a y
    that is not 1-d or not finite.

    Sums and differences of a few entries of y * 2**-e, which is of unit
    size, cannot overflow. Scaling by a power of two is exact while
    values stay in the normal range, so there a result computed on
    y * 2**-e and scaled back by 2**e is the one computed on y.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-d, got shape {y.shape}")
    peak = float(np.abs(y).max(initial=0.0))
    if not math.isfinite(peak):  # max|y| is NaN or inf exactly when y is not finite
        i = int(np.flatnonzero(~np.isfinite(y))[0])
        raise ValueError(f"y must be finite, got {y[i]} at index {i}")
    e = math.frexp(peak)[1]
    return np.ldexp(y, -e), e


def from_unit(x, e: int):
    """Scale a smoothed signal x of unit size back by 2**e, in place;
    raise ResultOverflowError where it exceeds float64."""
    try:
        with np.errstate(over="raise"):
            return np.ldexp(x, e, out=x)
    except FloatingPointError:
        raise _overflow(e) from None


def _overflow(e: int):
    return ResultOverflowError(f"smoothed signal exceeds float64 at scale 2**{e}")


def penalized_weights(y_unit, method: str, clip: bool = True):
    """Weight diagonal A and penalty scale of a penalized method.

    Returns (A, scale) with lam = parameter * scale, for y_unit from
    ``to_unit``. PS gives (ones, 1), LSA-PS the curvature weights of
    y_unit, clipped at their median if ``clip``, and that pre-clip median.

    Raises
    ------
    DegenerateSignalError
        For LSA-PS when the median curvature weight is zero, so the
        penalty scale collapses (an affine signal, one straight on at least
        half of its points, or curvature that underflows).
    ValueError
        For an unknown method.
    """
    if method == "ps":
        return np.ones(y_unit.shape[0]), 1.0
    if method == "lsa-ps":
        raw = local_quadratic_curvature(y_unit)
        median = float(np.median(raw))
        if median == 0:
            raise DegenerateSignalError(
                "median curvature weight is zero, so the LSA-PS penalty scale collapses"
            )
        return (np.minimum(raw, median) if clip else raw), median
    raise ValueError(f"unknown method {method!r}")



def smooth_ps(y, lam: float):
    """Penalized smoother: (I + lam * D^T D)^{-1} y."""
    return smooth(y, "ps", lam)[0]


def smooth_lsa_ps(y, lambda_bar: float, clip: bool = True):
    """Locally self-adjustive penalized smoother.

    Parameters
    ----------
    y : array-like
        Noisy signal, length >= 5, all finite.
    lambda_bar : float
        Scaled global smoothness; the effective penalty is
        ``lambda_bar * median(weights)`` with the pre-clip median.
    clip : bool
        Clip the weights at their median to avoid over-smoothing near
        peak flanks.

    Returns
    -------
    (numpy.ndarray, float)
        The smoothed signal and the effective penalty used. The penalty
        is in units of y squared: it overflows to inf for max|y| beyond
        about 1e154 and underflows below about 1e-154. The smoothed
        signal is fitted at unit size and returned in units of y.

    Raises
    ------
    InvalidConfigError
        If ``lambda_bar`` is negative or the effective penalty is not
        finite.
    ValueError
        If ``y`` is not 1-d or not finite.
    ResultOverflowError
        If the smoothed signal exceeds float64.
    DegenerateSignalError
        If the median curvature weight is zero, for any ``lambda_bar``:
        the penalty scale collapses and the caller must decide what to
        do. Affine signals, signals straight on at least half of their
        points and signals whose squared curvature underflows do this.
    SingularSystemError
        If ``lambda_bar`` is zero and some curvature weight is zero.
    """
    return smooth(y, "lsa-ps", lambda_bar, clip)


def smooth_savitzky_golay(y, window: int, poly_order: int):
    """Savitzky-Golay smoothing: a least-squares polynomial fit of degree
    ``poly_order`` over each ``window``-point neighbourhood.

    Interior points take the centre value of the fit around them; the
    first and last ``window // 2`` points take the fit to the first or
    last ``window`` samples (scipy's ``mode="interp"``). The fit is the
    projection q^T q onto degree-``poly_order`` polynomials, with q the
    orthonormal basis of ``_sg_basis`` (Gorry 1990), so every order up
    to ``window - 1`` stays accurate. At ``poly_order == window - 1`` the
    fit interpolates and the output is an exact copy. The fit runs on
    y * 2**-e, of unit size, and is scaled back by 2**e, so data near the
    float64 limit does not overflow in it.
    """
    return smooth(y, "sg", (window, poly_order))[0]


def smooth_gaussian(y, window: int):
    """Convolution with a truncated, renormalized Gaussian kernel.

    The kernel spans ``window`` points with standard deviation
    window / 5; near the edges the kernel is renormalized over the
    available support instead of padding. It runs on y * 2**-e, like
    the other smoothers.
    """
    return smooth(y, "gaussian", window)[0]


def smooth(y, method: str, parameter, clip: bool = True):
    """Smooth ``y`` by method name; return (x, effective lambda).

    ``parameter`` is lam for ``ps``, lambda_bar for ``lsa-ps``, a
    (window, poly_order) pair for ``sg`` and a window for ``gaussian``;
    ``clip`` applies to ``lsa-ps`` alone. The lambda is None for ``sg``,
    ``gaussian`` and ``none``, the benchmark's identity control, which
    returns a copy of y. Raises ValueError for an unknown method, and
    for a y that is not 1-d and finite.
    """
    # A one-parameter grid is one block of one result.
    [(_, [result])] = grid_blocks(y, method, (parameter,), clip)
    return _value(result)


def grid_blocks(y, method: str, grid, clip: bool = True):
    """Smooth ``y`` with every parameter of ``grid``, a block of
    parameters at a time; the one method dispatch.

    Returns an iterator that yields, per block and in grid order,
    (stack, results): ``results`` holds, per parameter of the block, the
    (x, effective lambda) that ``smooth`` returns for it or the exception
    that ``smooth`` raises for it, and ``stack`` is a 2-d array whose row
    i is the x of the block's i-th good result (the same memory). A block
    is the whole grid for PS, LSA-PS, gaussian and none, and for
    Savitzky-Golay a run of parameters whose fits share one window and
    basis, with the failures and copies of y among them. Work that does
    not depend on the parameter is done once per call: the unit scale
    of y, the PS and LSA-PS weights and their check, and the LSA-PS
    right-hand side; for Savitzky-Golay, once per block, the edge fits
    and the interior product of every order.
    A failure of that work is the result of each parameter that reaches
    it, after the checks that come first for that parameter, such as a
    negative ``lambda_bar``. Each block is computed when it is asked for,
    so one block is held at a time.
    """
    grid = list(grid)
    if method == "sg":
        return _sg_blocks(y, grid)
    if method == "ps":
        results = _ps_grid(y, grid)
    elif method == "lsa-ps":
        results = _lsa_ps_grid(y, grid, clip)
    elif method == "gaussian":
        results = _gaussian_grid(y, grid)
    elif method == "none":
        results = _none_grid(y, grid)
    else:
        results = [ValueError(f"unknown method {method!r}")] * len(grid)
    return _one_block(results)


def _one_block(results):
    yield _stacked(list(results))


def _stacked(results):
    """One block of per-parameter ``results``: their good x's copied into
    the rows of one stack, and the results holding those rows."""
    good = [result[0] for result in results if not isinstance(result, Exception)]
    stack = np.array(good) if good else np.empty((0, 0))
    rows = iter(stack)
    return stack, [result if isinstance(result, Exception) else (next(rows), result[1])
                   for result in results]


def _attempt(fit, *args):
    """fit(*args), or the exception it raises: one cell's result."""
    try:
        return fit(*args)
    except Exception as exc:  # a failed cell yields its exception
        return exc


def _value(result):
    """A cell's result, raised if it is an exception."""
    if isinstance(result, Exception):
        raise result
    return result


def _ps_grid(y, grid):
    def prepare():
        y_unit, e = to_unit(y)
        return linalg.assembler(np.ones(y_unit.shape[0])), y_unit, e

    shared = _attempt(prepare)

    def fit(lam):
        assemble, y_unit, e = _value(shared)
        x = linalg.solve(assemble(lam), y_unit)
        return from_unit(x, e), lam

    return (_attempt(fit, lam) for lam in grid)


def _lsa_ps_grid(y, grid, clip):
    def prepare():
        y_unit, e = to_unit(y)
        a, scale = penalized_weights(y_unit, "lsa-ps", clip)
        # The right-hand side a * y in place: a second n-array beside y
        # raises the peak RSS.
        y_unit *= a
        return linalg.assembler(a), scale, y_unit, e

    shared = _attempt(prepare)

    def fit(lambda_bar):
        if lambda_bar < 0:
            raise InvalidConfigError(f"lambda_bar must be >= 0, got {lambda_bar}")
        assemble, scale, rhs, e = _value(shared)
        x = linalg.solve(assemble(lambda_bar * scale), rhs)
        with np.errstate(over="ignore", under="ignore"):
            lam = float(np.ldexp(lambda_bar * scale, 2 * e))
        return from_unit(x, e), lam

    return (_attempt(fit, lambda_bar) for lambda_bar in grid)


def _sg_order(n: int, parameter):
    """The (window, poly_order) of a Savitzky-Golay fit to n points, or
    None where the fit is a copy of y; raises for invalid arguments."""
    window, poly_order = parameter
    if window < 1 or window % 2 == 0:
        raise InvalidConfigError(f"window must be odd and >= 1, got {window}")
    if window > 1 and not 1 <= poly_order < window:
        raise InvalidConfigError(
            f"poly_order must satisfy 1 <= order < window, got order={poly_order}"
        )
    if n < window:
        raise InvalidSizeError(f"signal length {n} < window {window}")
    return None if window == 1 or poly_order == window - 1 else (window, poly_order)


# Savitzky-Golay orders up to this share one basis per window (``_sg_top``).
SG_SHARED_TOP = 63


def _sg_top(window: int, poly_order: int) -> int:
    """The top order of the basis that an order-``poly_order`` fit on
    ``window`` points is taken from: min(window - 2, SG_SHARED_TOP) for
    the orders up to it, which then share one basis, and the order
    itself above it. The top depends on the fit alone, so a fit taken
    alone and the same fit taken in a grid are the same bits."""
    return max(poly_order, min(window - 2, SG_SHARED_TOP))


# Distinct (window, top) bases kept by ``_sg_basis``; the comparison grid
# uses 17, each of at most 34 x 35 entries.
SG_BASIS_CACHE = 64
# Output columns per interior product of ``_sg_fill``, at fixed offsets:
# a fit taken alone holds one (top + 1)-row chunk of them, not a
# (top + 1)-row copy of y.
SG_CHUNK = 16384


@functools.lru_cache(maxsize=SG_BASIS_CACHE)
def _sg_basis(window: int, top: int):
    """Orthonormal basis q of the polynomials of degree <= ``top`` on a
    ``window``-point grid, row k of degree k, and the interior kernels:
    row o of ``kernels`` is q[:o+1]^T q[:o+1, h], the weights of the
    order-o fit at the centre h. Both are cached and read-only.

    q is the QR factor of the Chebyshev polynomials on the grid scaled to
    [-1, 1] (Gorry 1990). Gram-Schmidt is nested, so its first o + 1 rows
    span the polynomials of degree <= o, and ``kernels`` is a running sum
    over the rows.
    """
    h = window // 2
    t = (np.arange(window) - h) / h
    q = np.linalg.qr(np.cos(np.arange(top + 1) * np.arccos(t)[:, None]))[0]
    q = np.ascontiguousarray(q.T)
    kernels = np.cumsum(q * q[:, h : h + 1], axis=0)
    q.flags.writeable = kernels.flags.writeable = False
    return q, kernels


def _sg_fill(stack, rows, y_unit, window: int, top: int, orders):
    """Write the Savitzky-Golay fits of y_unit of the given ``orders``,
    all taken from the basis of degree ``top`` on ``window`` points, into
    the ``rows`` of ``stack``.

    The edge fits of all orders come from one product per edge: the
    coefficients of the first and last ``window`` samples in the basis,
    summed over the basis rows as a running sum. The interior fits of
    all orders come from one product per chunk of ``SG_CHUNK`` columns,
    the kernels times the sliding windows of y_unit, whatever the orders
    asked for. Row sums, running sums and products taken over the same
    chunks for any orders keep each order's bits independent of the
    other orders of the grid.
    """
    q, kernels = _sg_basis(window, top)
    h = window // 2
    n = y_unit.shape[0]
    head = np.cumsum(q[:, :h] * (q * y_unit[:window]).sum(axis=1)[:, None], axis=0)
    tail = np.cumsum(q[:, h + 1 :] * (q * y_unit[n - window :]).sum(axis=1)[:, None], axis=0)
    stack[rows, :h] = head[orders]
    stack[rows, n - h :] = tail[orders]
    for start in range(h, n - h, SG_CHUNK):
        stop = min(start + SG_CHUNK, n - h)
        windows = sliding_window_view(y_unit[start - h : stop + h], window)
        stack[rows, start:stop] = (kernels @ windows.T)[orders]


def _sg_blocks(y, grid):
    unit = _attempt(to_unit, y)
    if isinstance(unit, Exception):
        yield _stacked([unit] * len(grid))
        return
    y_unit, e = unit
    n = y_unit.shape[0]
    # An item is (window, order) for a fit, None for a copy of y and an
    # exception for a failure; a block ends where a fit needs another basis.
    items, basis = [], None
    for parameter in grid:
        item = _attempt(_sg_order, n, parameter)
        if isinstance(item, tuple):
            key = item[0], _sg_top(*item)
            if basis not in (None, key):
                yield _sg_block(y, y_unit, e, basis, items)
                items = []
            basis = key
        items.append(item)
    if items:
        yield _sg_block(y, y_unit, e, basis, items)


def _sg_block(y, y_unit, e: int, basis, items):
    """The stack and results of one run of Savitzky-Golay ``items`` whose
    fits share ``basis`` = (window, top)."""
    good = [item for item in items if not isinstance(item, Exception)]
    stack = np.zeros((len(good), y_unit.shape[0]))
    fits = [i for i, item in enumerate(good) if item is not None]
    if fits:
        _sg_fill(stack, fits, y_unit, *basis, [good[i][1] for i in fits])
    try:
        from_unit(stack, e)
        over = np.zeros(len(good), dtype=bool)
    except ResultOverflowError:
        # ldexp scales every entry before it raises, and only an overflow
        # turns a finite entry into inf; the copies' rows still hold zeros.
        over = np.isinf(stack).any(axis=1)
    stack[[i for i, item in enumerate(good) if item is None]] = y
    if over.any():
        stack = stack[~over]
    results, rows, flags = [], iter(stack), iter(over.tolist())
    for item in items:
        if not isinstance(item, Exception):
            item = _overflow(e) if next(flags) else (next(rows), None)
        results.append(item)
    return stack, results


def _gaussian_grid(y, grid):
    unit = _attempt(to_unit, y)

    def fit(window):
        y_unit, e = _value(unit)
        if window < 1:
            raise InvalidConfigError(f"window must be >= 1, got {window}")
        n = y_unit.shape[0]
        if window == 1 or n == 1:
            return np.array(y, dtype=float), None
        sigma = window / 5.0
        positions = np.arange(window, dtype=float)
        center = (window - 1) / 2.0
        kernel = np.exp(-0.5 * ((positions - center) / sigma) ** 2)
        kernel /= kernel.sum()
        offsets = np.arange(window) - window // 2
        out = np.zeros(n)
        norm = np.zeros(n)
        for coeff, off in zip(kernel, offsets):
            lo = max(0, -off)
            hi = min(n, n - off)
            if lo >= hi:
                continue
            out[lo:hi] += coeff * y_unit[lo + off : hi + off]
            norm[lo:hi] += coeff
        out /= norm
        return from_unit(out, e), None

    return (_attempt(fit, window) for window in grid)


def _none_grid(y, grid):
    unit = _attempt(to_unit, y)

    def fit(_):
        _value(unit)  # the checks alone
        return np.array(y, dtype=float), None

    return (_attempt(fit, parameter) for parameter in grid)
