"""The smoothing algorithms: penalized (PS), locally self-adjustive
penalized (LSA-PS), and the Savitzky-Golay and Gaussian-convolution
baselines.

Both penalized smoothers are one formula, x = (A + lam * D^T D)^{-1} A y
with a diagonal weight matrix A and lam = parameter * scale. PS is the
case A = I, scale = 1. LSA-PS builds A from local curvature, optionally
clips it at its median, and takes scale = median(A) with the pre-clip
median. ``_penalized`` sets up both, A, the factors and a PS right-hand
side that is y itself, and reports each fit's lam as its factor's; the
smoothers and the CV selection in ``select`` take each x and lam from it.

``to_unit`` checks that y is 1-d and finite and scales it by a power
of two to unit size, so squared curvature and sums of a few entries
neither overflow nor underflow. It runs once per call of each entry
point, ``smooth``, a ``grid_plan``'s plan, ``select.select_parameter``,
``peaks.detect_peaks`` and ``peaks.second_difference``, and the work
below them takes the scaled y. A smoothed signal goes back through
``from_unit``, which raises ``ResultOverflowError`` where it exceeds
float64.

``_plan`` is the one method dispatch: it smooths y with every parameter
of a grid, a block of parameters at a time, and does the work that the
parameters share once. Each block comes with its good fits stacked as
the rows of one array, so that a caller can score them together. It
does the part of that work that does not depend on y once, for every
signal of one length: the Savitzky-Golay checks and block runs, the
Gaussian kernels, offsets and edge normalisations, and PS's unit
weights and factors.
``grid_plan`` is its public form, and ``smooth`` its one-parameter
case; each named smoother is the one-parameter case of ``smooth``, so a
fit taken alone and the same fit taken in a grid are the same bits.

The Savitzky-Golay baseline is a local least-squares polynomial fit, an
orthogonal projection built with numpy alone from the QR factor of a
small Chebyshev basis. One QR per window serves every order of a grid,
because Gram-Schmidt is nested, and the basis is cached per (window, top
order). The interior fits of every order of a window come from one
matrix product, the kernels of all orders times the windows of y, taken
in column chunks at fixed offsets. The windows are the first rows of
one C-contiguous Hankel matrix of y per signal, with one row per sample
of the widest window of the grid, which BLAS reads as it is: a signal
one chunk wide makes it once for all its windows, and a wider one makes
it per chunk. A fit taken alone takes the same product and keeps one
row.
"""

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import linalg
from .errors import (DegenerateSignalError, InvalidConfigError, InvalidSizeError,
                     ResultOverflowError, at_least, boolean, checked, integer, length,
                     nonnegative, real, shown)
from .localfit import local_quadratic_curvature


# Method names of the CLI and the benchmark; CV supports the penalized ones.
PENALIZED = ("ps", "lsa-ps")
METHODS = PENALIZED + ("sg", "gaussian")


def to_unit(y, name: str = "y"):
    """(y * 2**-e, e) with max|y| = m * 2**e, m in [0.5, 1), or e = 0 for
    y = 0; the scaled array is a fresh copy. Raises InvalidSizeError for
    a y that is not 1-d and InvalidInputError for one that is not an
    array of real numbers or not finite (``errors.checked``), each naming
    the array ``name``.

    Sums and differences of a few entries of y * 2**-e, which is of unit
    size, cannot overflow. Scaling by a power of two is exact while
    values stay in the normal range, so there a result computed on
    y * 2**-e and scaled back by 2**e is the one computed on y.
    """
    y = checked(name, y)
    e = math.frexp(float(np.abs(y).max(initial=0.0)))[1]
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
    InvalidConfigError
        For a ``clip`` that is not a bool, or a method other than ps
        and lsa-ps.
    """
    clip = boolean("clip", clip)
    if method == "ps":
        # An int scale, so that lam * scale is lam itself, of its own type.
        return np.ones(y_unit.shape[0]), 1
    if method == "lsa-ps":
        raw = local_quadratic_curvature(y_unit)
        median = float(np.median(raw))
        if median == 0:
            raise DegenerateSignalError(
                "median curvature weight is zero, so the LSA-PS penalty scale collapses"
            )
        return (np.minimum(raw, median) if clip else raw), median
    raise InvalidConfigError(
        f"penalized weights take only ps and lsa-ps, got {shown(method, repr)}")


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
        peak flanks; True or False (``errors.boolean``).

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
        If ``lambda_bar`` is not a finite real number >= 0
        (``errors.nonnegative``), or the effective penalty is not finite.
    InvalidSizeError, InvalidInputError
        If ``y`` is not 1-d, or not an array of real numbers or not
        finite, respectively.
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
    ``clip``, True or False, applies to ``lsa-ps`` alone. The lambda is
    None for ``sg`` and ``gaussian``. Raises ``InvalidConfigError`` for an
    unknown method, then ``InvalidSizeError`` for a y that is not 1-d and
    ``InvalidInputError`` for one that is not an array of real numbers or
    not finite, and only then the ``InvalidConfigError`` of ``clip`` and of
    the parameter, such as a lam or lambda_bar that is negative or not a
    finite real number, a window or order that is not an integer, or an
    ``sg`` parameter that is not a (window, poly_order) pair.
    """
    _check_method(method)
    y_unit, e = to_unit(y)
    # A one-parameter grid is one block of one result.
    [(_, [result])] = _plan(y_unit.shape[0], method, [parameter], clip)(y, y_unit, e)
    return _value(result)


def grid_plan(n: int, method: str, grid, clip: bool = True):
    """Plan the smoothing of n-point signals with every parameter of
    ``grid``; raise ``InvalidConfigError`` for an unknown method, an n
    that is not an integer from 0 to ``sys.maxsize`` (``errors.length``)
    or a ``clip`` that is not a bool (``errors.boolean``).

    plan(y) raises the ``InvalidSizeError`` or ``InvalidInputError`` of
    ``to_unit`` for a bad y, then ``InvalidSizeError`` for a y of another
    length than n. It returns an iterator that yields, per block and in
    grid order, (stack, results): ``results`` holds, per parameter of the
    block, the (x, effective lambda) that ``smooth`` returns for it, a
    penalized fit's lambda being its factor's, or the exception that
    ``smooth`` raises for it, and ``stack`` is a 2-d array whose row i is
    the x of the block's i-th good result (the same memory). A block is
    the whole grid for PS, LSA-PS and gaussian, and for Savitzky-Golay a
    run of parameters whose fits share one window and basis, with the
    failures and copies of y among them. Each block is computed when it
    is asked for, so one block is held at a time.

    Work that does not depend on the parameter is done once per signal:
    the unit scale of y and, for LSA-PS, the setup of ``_penalized``, the
    weights, their check and the right-hand side A y; for
    Savitzky-Golay, once per block, the edge fits and the interior
    product of every order, and once per signal, or per chunk of a signal
    wider than ``SG_CHUNK``, the window matrix that those products read.
    A failure of that work is the result of each parameter that reaches
    it, after the checks that come first for it, such as a negative lam.

    Work that does not depend on y is done once, here: for
    Savitzky-Golay, each parameter's check and the runs of parameters
    that share a basis; for Gaussian, each window's check, or its kernel,
    offsets and edge normalisation; for PS, the unit weights and, by grid
    position, the factor of each lam, made when first asked for and kept
    where it succeeds, so a failing lam fails again, with the same
    message, for each signal. LSA-PS plans nothing. A PS plan holds the
    n unit weights and up to one 24n-byte factor per grid position, and
    a Gaussian plan one n-point normalisation per window, for as long as
    its caller holds the plan.
    """
    _check_method(method)
    n = length(0, "n", n)
    run = _plan(n, method, list(grid), clip)

    def plan(y):
        y_unit, e = to_unit(y)
        if y_unit.shape[0] != n:
            raise InvalidSizeError(f"the plan smooths signals of length {n}, got {y_unit.shape[0]}")
        return run(y, y_unit, e)

    return plan


def _check_method(method):
    if method not in METHODS:
        raise InvalidConfigError(f"unknown method {shown(method, repr)}")


def _plan(n: int, method: str, grid, clip: bool):
    """run(y, y_unit, e) -> the blocks of a ``grid_plan``'s plan for a y
    of length n, with y_unit and e from ``to_unit``, and with the work
    that does not depend on y done here, once."""
    clip = boolean("clip", clip)
    if method == "sg":
        runs = list(_sg_runs(n, grid))
        # The rows of the window matrix: the widest window that fits.
        width = max((run[0][0] for run in runs if run[0] is not None), default=1)
        return lambda y, y_unit, e: _sg_blocks(y, y_unit, e, width, runs)
    if method in PENALIZED:
        plan = _attempt(_ps_plan, n, grid) if method == "ps" else None
        return lambda y, y_unit, e: _one_block(
            _penalized_grid(y_unit, e, method, grid, clip, plan))
    # Gaussian: each window's check, or its kernel.
    kernels = [_attempt(_gaussian_kernel, n, window) for window in grid]
    return lambda y, y_unit, e: _one_block(
        kernel if isinstance(kernel, Exception) else _attempt(_gaussian, y, y_unit, e, kernel)
        for kernel in kernels)


def _one_block(results):
    """Yield one block of per-parameter ``results``: their good x's copied
    into the rows of one stack, and the results holding those rows."""
    results = list(results)
    good = [result[0] for result in results if not isinstance(result, Exception)]
    stack = np.array(good) if good else np.empty((0, 0))
    rows = iter(stack)
    yield stack, [result if isinstance(result, Exception) else (next(rows), result[1])
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


def _ps_plan(n: int, grid):
    """(A, factor) of PS for n-point signals, which depend on n alone: the
    unit weights and factor(i), the factor of lam = grid[i], kept by grid
    position where it succeeds; a cache keeps no exception, so a failure
    is raised again on each call."""
    weights = np.ones(n)
    assemble = linalg.assembler(weights)
    return weights, functools.cache(lambda i: assemble(grid[i]))


def _penalized(y_unit, e: int, method: str, clip: bool, grid, plan=None):
    """(fit, A): the fit of y = y_unit * 2**e, with y_unit and e from
    ``to_unit``, over ``grid``, set up once for it: by ``penalized_weights``
    and ``linalg.assembler``, or by ``plan``, a PS plan's ``_ps_plan``,
    raised here if making it failed. fit(i) returns the factor of grid[i],
    x at unit size and the factor's lam, for LSA-PS in units of y squared,
    inf or 0 where that leaves float64."""
    if plan is None:
        weights, scale = penalized_weights(y_unit, method, clip)
        assemble = linalg.assembler(weights)
        plan = weights, lambda i: assemble(grid[i] * scale)
    weights, factor = _value(plan)
    # PS's A is ones, and 1.0 * v is v.
    rhs = y_unit if method == "ps" else weights * y_unit

    def fit(i):
        f = factor(i)
        x = linalg.solve(f, rhs)
        if method == "ps":
            return f, x, f.lam
        with np.errstate(over="ignore", under="ignore"):
            return f, x, float(np.ldexp(f.lam, 2 * e))

    return fit, weights


def _penalized_grid(y_unit, e: int, method, grid, clip, plan):
    """The results of ``grid`` for PS or LSA-PS; ``plan`` is the PS plan
    that ``_penalized`` takes, or None."""
    shared = _attempt(_penalized, y_unit, e, method, clip, grid, plan)
    name = "lam" if method == "ps" else "lambda_bar"

    def fit(i, parameter):
        nonnegative(name, parameter)
        _, x, lam = _value(shared)[0](i)
        return from_unit(x, e), lam

    return (_attempt(fit, i, parameter) for i, parameter in enumerate(grid))


def _sg_order(n: int, parameter):
    """The (window, poly_order) of a Savitzky-Golay fit to n points, or
    None where the fit is a copy of y; raises for invalid arguments."""
    try:
        window, poly_order = parameter
    except (TypeError, ValueError):
        raise InvalidConfigError(
            "a Savitzky-Golay parameter is a (window, poly_order) pair, "
            f"got {shown(parameter, repr)}"
        ) from None
    window, poly_order = integer("window", window), integer("poly_order", poly_order)
    if window < 1 or window % 2 == 0:
        raise InvalidConfigError(f"window must be odd and >= 1, got {shown(window)}")
    if window > 1 and not 1 <= poly_order < window:
        raise InvalidConfigError(
            f"poly_order must satisfy 1 <= order < window, got order={shown(poly_order)}"
        )
    if n < window:
        raise InvalidSizeError(f"signal length {n} < window {shown(window)}")
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
# a fit taken alone holds one (top + 1)-row chunk of them and one
# window-row chunk of the window matrix, not rows as long as y.
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


def _sg_windows(y_unit, width: int):
    """chunk(j) -> the window matrix of chunk j of y_unit: the C-contiguous
    Hankel matrix H of ``width`` rows and up to ``SG_CHUNK`` columns with
    H[r, c] = y_unit[j * SG_CHUNK + c + r], zero past the end of y_unit.
    Column c holds the window of y_unit that starts at j * SG_CHUNK + c,
    and its first w rows serve a window of any w <= ``width``. The chunk
    asked for last is kept: a signal one chunk wide makes H once for all
    its windows, and a wider one holds one chunk at a time."""
    n = y_unit.shape[0]
    padded = np.concatenate((y_unit, np.zeros(width - 1)))
    kept = {}

    def chunk(j):
        if j not in kept:
            kept.clear()
            start = j * SG_CHUNK
            shape = width, min(SG_CHUNK, n - start)
            kept[j] = as_strided(padded[start:], shape, 2 * padded.strides).copy()
        return kept[j]

    return chunk


def _sg_fill(stack, rows, y_unit, windows, window: int, top: int, orders):
    """Write the Savitzky-Golay fits of y_unit of the given ``orders``,
    all taken from the basis of degree ``top`` on ``window`` points, into
    the ``rows`` of ``stack``; both are indices of ``_index``.

    The edge fits of all orders come from one product per edge: the
    coefficients of the first and last ``window`` samples in the basis,
    summed over the basis rows as a running sum. The interior fits of
    all orders come from one product per chunk of ``SG_CHUNK`` columns,
    the kernels times the first ``window`` rows of ``windows(j)``, the
    window matrix of ``_sg_windows`` for chunk j, a view that BLAS takes
    as it is, whatever the orders asked for. Row sums, running sums and
    products taken over the same chunks for any orders and any width of
    the window matrix keep each order's bits independent of the other
    orders and windows of the grid.
    """
    q, kernels = _sg_basis(window, top)
    h = window // 2
    n = y_unit.shape[0]
    head = np.cumsum(q[:, :h] * (q * y_unit[:window]).sum(axis=1)[:, None], axis=0)
    tail = np.cumsum(q[:, h + 1 :] * (q * y_unit[n - window :]).sum(axis=1)[:, None], axis=0)
    stack[rows, :h] = head[orders]
    stack[rows, n - h :] = tail[orders]
    for j, start in enumerate(range(h, n - h, SG_CHUNK)):
        stop = min(start + SG_CHUNK, n - h)
        stack[rows, start:stop] = (kernels @ windows(j)[:window, : stop - start])[orders]


def _sg_runs(n: int, grid):
    """The Savitzky-Golay ``grid`` on n points as runs of items, each
    planned by ``_sg_run``. An item is (window, order) for a fit, None for
    a copy of y and an exception for a failure; a run ends where a fit
    needs another basis, (window, top)."""
    items, basis = [], None
    for parameter in grid:
        item = _attempt(_sg_order, n, parameter)
        if isinstance(item, tuple):
            key = item[0], _sg_top(*item)
            if basis not in (None, key):
                yield _sg_run(basis, items)
                items = []
            basis = key
        items.append(item)
    if items:
        yield _sg_run(basis, items)


def _sg_run(basis, items):
    """A run of Savitzky-Golay ``items`` whose fits share ``basis``,
    planned: (basis, errors, k, fits, orders, copies), where ``errors``
    holds the (position, exception) of each failed item, k is the number
    of good items, the rows of the run's stack, ``fits`` and ``copies``
    index the rows that hold a fit and a copy of y, and ``orders`` the
    order of each fit, each as ``_index`` makes it."""
    errors = [(i, item) for i, item in enumerate(items) if isinstance(item, Exception)]
    good = [item for item in items if not isinstance(item, Exception)]
    fits = [i for i, item in enumerate(good) if item is not None]
    copies = [i for i, item in enumerate(good) if item is None]
    return (basis, errors, len(good), _index(fits), _index([good[i][1] for i in fits]),
            _index(copies))


def _index(values):
    """The int list ``values`` as an index: a slice where they rise in
    steps of one, which numpy takes faster than an array, an array
    otherwise, and None where there are none."""
    if not values:
        return None
    if values == list(range(values[0], values[-1] + 1)):
        return slice(values[0], values[-1] + 1)
    return np.array(values, dtype=np.intp)


def _sg_blocks(y, y_unit, e: int, width: int, runs):
    """The blocks of the Savitzky-Golay ``runs`` of a plan for one signal,
    whose fits all take their windows from one ``_sg_windows`` of y_unit
    with ``width`` rows, the plan's widest window."""
    windows = _sg_windows(y_unit, width)
    for run in runs:
        yield _sg_block(y, y_unit, e, windows, *run)


def _sg_block(y, y_unit, e: int, windows, basis, errors, k: int, fits, orders, copies):
    """The stack and results of one run of Savitzky-Golay items, planned
    by ``_sg_run``, with its fits taken from ``windows``."""
    stack = np.zeros((k, y_unit.shape[0]))
    if fits is not None:
        _sg_fill(stack, fits, y_unit, windows, *basis, orders)
    try:
        from_unit(stack, e)
        over = []
    except ResultOverflowError:
        # ldexp scales every entry before it raises, and only an overflow
        # turns a finite entry into inf; the copies' rows still hold zeros.
        over = np.flatnonzero(np.isinf(stack).any(axis=1)).tolist()
    if copies is not None:
        stack[copies] = y
    if over:
        stack = np.delete(stack, over, axis=0)
    # The good results in row order, then each failure put back, in rising
    # order, at its position among the good items and among all items.
    results = [(row, None) for row in stack]
    for i in over:
        results.insert(i, _overflow(e))
    for i, error in errors:
        results.insert(i, error)
    return stack, results


def _gaussian_kernel(n: int, window):
    """The Gaussian smoothing of ``window`` for n-point signals, planned:
    None where it is a copy of y, else (terms, norm), where each term
    (coeff, lo, hi, off) adds coeff * y[lo + off : hi + off] to the
    output's [lo, hi), and ``norm``, read-only, is the kernel weight that
    each output point receives, its edge normalisation. Each depends on
    (window, n) alone. Only the taps that reach the signal, |off| < n,
    are built: at most 2n - 1, however wide the window. Raises for an
    invalid window."""
    window = real("window", at_least(1, "window", window))
    if window == 1 or n == 1:
        return None
    sigma = window / 5.0
    # Tap k of the window lies at off = k - window // 2 from the output
    # point, and at k - (window - 1) / 2 = off (+ 0.5 for an even window)
    # from the kernel's center.
    offsets = np.arange(max(-(window // 2), 1 - n), min(window - window // 2, n))
    kernel = np.exp(-0.5 * ((offsets + (0.0 if window % 2 else 0.5)) / sigma) ** 2)
    kernel /= kernel.sum()
    terms = []
    norm = np.zeros(n)
    for coeff, off in zip(kernel, offsets.tolist()):
        lo, hi = max(0, -off), min(n, n - off)
        terms.append((coeff, lo, hi, off))
        norm[lo:hi] += coeff
    norm.flags.writeable = False
    return terms, norm


def _gaussian(y, y_unit, e: int, kernel):
    """The Gaussian smoothing of y = y_unit * 2**e and its lambda, None,
    with ``kernel`` from ``_gaussian_kernel``."""
    if kernel is None:
        return np.array(y, dtype=float), None
    terms, norm = kernel
    out = np.zeros(y_unit.shape[0])
    for coeff, lo, hi, off in terms:
        out[lo:hi] += coeff * y_unit[lo + off : hi + off]
    out /= norm
    return from_unit(out, e), None
