"""The smoothing algorithms: penalized (PS), locally self-adjustive
penalized (LSA-PS), and the Savitzky-Golay and Gaussian-convolution
baselines.

Both penalized smoothers are one formula, x = (A + lam * D^T D)^{-1} A y
with a diagonal weight matrix A and lam = parameter * scale. PS is the
case A = I, scale = 1. LSA-PS builds A from local curvature, optionally
clips it at its median, and takes scale = median(A) with the pre-clip
median. ``_penalized`` is the one fit of both: the smoothers and the CV
selection in ``select`` take each x and lam from it.

``to_unit`` checks that y is 1-d and finite and scales it by a power
of two to unit size, so squared curvature and sums of a few entries
neither overflow nor underflow. It runs once per call of each entry
point, ``grid_blocks``, ``select.select_parameter``,
``peaks.detect_peaks`` and ``peaks.second_difference``, and the work
below them takes the scaled y. A smoothed signal goes back through
``from_unit``, which raises ``ResultOverflowError`` where it exceeds
float64.

``grid_blocks`` is the one method dispatch: it smooths y with every
parameter of a grid, a block of parameters at a time, and does the work
that the parameters share once. Each block comes with its good fits
stacked as the rows of one array, so that a caller can score them
together. ``smooth`` is its one-parameter case, and each named smoother
is the one-parameter case of ``smooth``, so a fit taken alone and the
same fit taken in a grid are the same bits. ``grid_plan`` does, once for
many signals of one length, the part of that work that does not depend
on y: the Savitzky-Golay checks and block runs, the Gaussian kernels,
offsets and edge normalisations, and the PS factors.

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
                     ResultOverflowError, checked, integer, real)
from .localfit import local_quadratic_curvature


# Method names of the CLI and the benchmark; CV supports the penalized ones.
PENALIZED = ("ps", "lsa-ps")
METHODS = PENALIZED + ("sg", "gaussian")


def to_unit(y):
    """(y * 2**-e, e) with max|y| = m * 2**e, m in [0.5, 1), or e = 0 for
    y = 0; the scaled array is a fresh copy. Raises InvalidSizeError for
    a y that is not 1-d and InvalidInputError for one that is not an
    array of real numbers or not finite (``errors.checked``).

    Sums and differences of a few entries of y * 2**-e, which is of unit
    size, cannot overflow. Scaling by a power of two is exact while
    values stay in the normal range, so there a result computed on
    y * 2**-e and scaled back by 2**e is the one computed on y.
    """
    y = checked("y", y)
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
        For an unknown method.
    """
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
    raise InvalidConfigError(f"unknown method {method!r}")



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
        If ``lambda_bar`` is not a real number (``errors.real``), is
        negative, or the effective penalty is not finite.
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
    ``clip`` applies to ``lsa-ps`` alone. The lambda is None for ``sg``
    and ``gaussian``. Raises ``InvalidConfigError`` for an unknown
    method, then ``InvalidSizeError`` for a y that is not 1-d and
    ``InvalidInputError`` for one that is not an array of real numbers or
    not finite, and only then the ``InvalidConfigError`` of the parameter,
    such as a negative ``lambda_bar``, a lam or lambda_bar that is not a
    real number, a window or order that is not an integer, or an ``sg``
    parameter that is not a (window, poly_order) pair.
    """
    # A one-parameter grid is one block of one result.
    [(_, [result])] = grid_blocks(y, method, (parameter,), clip)
    return _value(result)


def grid_blocks(y, method: str, grid, clip: bool = True):
    """Smooth ``y`` with every parameter of ``grid``, a block of
    parameters at a time; the one method dispatch. It checks the method,
    scales y by ``to_unit`` and runs the ``grid_plan`` for y's length.

    Returns an iterator that yields, per block and in grid order,
    (stack, results): ``results`` holds, per parameter of the block, the
    (x, effective lambda) that ``smooth`` returns for it or the exception
    that ``smooth`` raises for it, and ``stack`` is a 2-d array whose row
    i is the x of the block's i-th good result (the same memory). A block
    is the whole grid for PS, LSA-PS and gaussian, and for
    Savitzky-Golay a run of parameters whose fits share one window and
    basis, with the failures and copies of y among them. An unknown
    method, then a y that fails ``to_unit``, is the result of every
    parameter, in one block; only a valid y reaches the checks of each
    parameter. Work that does not depend on the parameter is done once
    per call: the unit scale of y and, for PS and LSA-PS, the setup of
    ``_penalized``, the weights, their check and the right-hand side;
    for Savitzky-Golay, once per block, the edge fits and the interior
    product of every order, and once per signal, or per chunk of a
    signal wider than ``SG_CHUNK``, the window matrix that those
    products read. A failure of that work is the result of each
    parameter that reaches it, after the checks that come first for that
    parameter, such as a negative ``lambda_bar``. Each block is computed
    when it is asked for, so one block is held at a time.
    """
    return _blocks(y, method, list(grid), clip)


def grid_plan(n: int, method: str, grid, clip: bool = True):
    """The work of ``grid_blocks(y, method, grid, clip)`` for n-point
    signals that does not depend on y, done once: plan(y) returns what
    that call returns for any y of length n, the same bits and the same
    errors in the same order (the method, then y, then each parameter).

    For Savitzky-Golay the plan holds each parameter's check and the
    runs of parameters that share a basis, with the stack rows and
    orders of each run's fits; for Gaussian, each window's check, or its
    kernel, offsets and edge normalisation; for PS, the assembler of the
    unit weights and, by grid position, the factor of each lam, made
    when first asked for and kept where it succeeds, so a failing lam
    fails again, with the same message, for each signal. LSA-PS, whose
    weights depend on y, plans nothing. A PS plan holds up to
    one 24n-byte factor per grid position, and a Gaussian plan one
    n-point normalisation per window, for as long as its caller holds
    the plan. A y of another length raises ``InvalidSizeError``, after
    the checks of the method and of y.
    """
    grid = list(grid)
    planned = (n, _plan(n, method, grid, clip)) if method in METHODS else None
    return functools.partial(_blocks, method=method, grid=grid, clip=clip, planned=planned)


def _blocks(y, method, grid, clip, planned=None):
    """``grid_blocks``: the checks of the method and of y, then the run
    of ``planned``, the (n, run) of a plan, or of a plan made for y."""
    if method not in METHODS:
        return _one_block([InvalidConfigError(f"unknown method {method!r}")] * len(grid))
    unit = _attempt(to_unit, y)
    if isinstance(unit, Exception):
        return _one_block([unit] * len(grid))
    y_unit, e = unit
    n = y_unit.shape[0]
    if planned is None:
        planned = n, _plan(n, method, grid, clip)
    if planned[0] != n:
        raise InvalidSizeError(f"the plan smooths signals of length {planned[0]}, got {n}")
    return planned[1](y, y_unit, e)


def _plan(n: int, method: str, grid, clip: bool):
    """run(y, y_unit, e) -> the blocks of ``grid_blocks`` for a y of
    length n, with y_unit and e from ``to_unit``, and with the work that
    does not depend on y done here, once."""
    if method == "sg":
        runs = list(_sg_runs(n, grid))
        # The rows of the window matrix: the widest window that fits.
        width = max((run[0][0] for run in runs if run[0] is not None), default=1)
        return lambda y, y_unit, e: _sg_blocks(y, y_unit, e, width, runs)
    if method in PENALIZED:
        # PS's weights depend on n alone, so zeros of length n stand for y.
        system = (_attempt(_system, *penalized_weights(np.zeros(n), "ps"), grid, True)
                  if method == "ps" else None)
        return lambda y, y_unit, e: _one_block(
            _penalized_grid(y_unit, e, method, grid, clip, system))
    # Gaussian: each window's check, or its kernel.
    kernels = [_attempt(_gaussian_kernel, n, window) for window in grid]
    return lambda y, y_unit, e: _one_block(
        kernel if isinstance(kernel, Exception) else _attempt(_gaussian, y, y_unit, e, kernel)
        for kernel in kernels)


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


def _system(weights, scale, grid, keep: bool = False):
    """(A, scale, factor) of a penalized fit over ``grid``: factor(i) is
    the ``linalg.assembler`` factor of lam = grid[i] * scale. With
    ``keep``, each factor that succeeds is kept, by grid position, and
    returned again; a failure is raised again on each call."""
    assemble = linalg.assembler(weights)
    if not keep:
        return weights, scale, lambda i: assemble(grid[i] * scale)
    kept = [None] * len(grid)

    def factor(i):
        if kept[i] is None:
            kept[i] = assemble(grid[i] * scale)
        return kept[i]

    return weights, scale, factor


def _penalized(y_unit, e: int, method: str, clip: bool, grid, system=None):
    """(fit, A): the fit of y = y_unit * 2**e, with y_unit and e from
    ``to_unit``, over ``grid``, set up once for it: by
    ``penalized_weights`` and ``_system``, or by ``system``, a PS plan's
    ``_system``, which does not depend on y. fit(i) returns the factor of
    grid[i], x at unit size and lam in units of y squared, inf or 0 where
    that leaves float64."""
    weights, scale, factor = system or _system(*penalized_weights(y_unit, method, clip), grid)
    rhs = weights * y_unit

    def fit(i):
        f = factor(i)
        x = linalg.solve(f, rhs)
        if method == "ps":
            return f, x, grid[i]
        with np.errstate(over="ignore", under="ignore"):
            return f, x, float(np.ldexp(grid[i] * scale, 2 * e))

    return fit, weights


def _penalized_grid(y_unit, e: int, method, grid, clip, system=None):
    """The results of ``grid`` for PS or LSA-PS; ``system``, a PS plan's
    ``_system`` or the exception that making it raised, where given."""
    shared = (system if isinstance(system, Exception)
              else _attempt(_penalized, y_unit, e, method, clip, grid, system))

    name = "lam" if method == "ps" else "lambda_bar"

    def fit(i, parameter):
        if real(name, parameter) < 0 and method == "lsa-ps":
            raise InvalidConfigError(f"lambda_bar must be >= 0, got {parameter}")
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
            f"a Savitzky-Golay parameter is a (window, poly_order) pair, got {parameter!r}"
        ) from None
    window, poly_order = integer("window", window), integer("poly_order", poly_order)
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
    (window, n) alone. Raises for an invalid window."""
    window = integer("window", window)
    if window < 1:
        raise InvalidConfigError(f"window must be >= 1, got {window}")
    if window == 1 or n == 1:
        return None
    sigma = window / 5.0
    positions = np.arange(window, dtype=float)
    center = (window - 1) / 2.0
    kernel = np.exp(-0.5 * ((positions - center) / sigma) ** 2)
    kernel /= kernel.sum()
    offsets = np.arange(window) - window // 2
    terms = []
    norm = np.zeros(n)
    for coeff, off in zip(kernel, offsets):
        lo = max(0, -off)
        hi = min(n, n - off)
        if lo >= hi:
            continue
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
