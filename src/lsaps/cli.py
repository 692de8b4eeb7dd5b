"""Command-line front door.

Two subcommands:

``lsaps smooth``
    Ingest a two-column spectrum file, smooth it with a fixed parameter
    or CV-selected parameter, optionally detect peaks, and write the
    results as delimited text plus a JSON run summary.

``lsaps benchmark``
    Run the synthetic Lorentzian sweep described by a JSON scenario
    file and write the per-cell and aggregate tables.

Spectra in the common layout, two decimal numbers a line split by one
single-byte delimiter (a single space where the first row splits on
whitespace), with "\\n" or "\\r\\n" line ends, are read by a numpy decimal
reader (``_read_decimal``): a digit kernel and Eisel–Lemire rounding in
uint64 arithmetic give the float ``float()`` gives for each field, and a
value the rounding cannot settle is read by ``float()``. Other files (runs
of whitespace, a third column, a lone CR, ``nan``) are read by a line
parser, about five times slower (165 against 31 ms at n = 1e5). One grid
check (``_grid``) serves both readers and names the offending line.

All numeric output uses 12 significant digits, the text of
``FLOAT_FMT % v``, so re-ingesting an emitted file is idempotent at that
precision. ``smoothed.txt`` and ``second_derivative.txt``, 3n values, take
their digits from a numpy kernel that is exact where it is used: a value
whose 12-digit rounding float64 arithmetic cannot prove, within 1e-3 of a
decimal tie or outside [1e-11, 1e12), is formatted by ``%`` alone
(``_format_slots``). Errors exit nonzero with one machine-parseable JSON
line on stderr.
"""

import argparse
import json
# argparse's gettext imports locale while every run builds its parser;
# imported here, it is loaded with the rest of the module.
import locale  # noqa: F401
import math
import os
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import fields
from itertools import chain
from pathlib import Path

import numpy as np

from . import select as select_mod
from .errors import IngestError, InvalidConfigError, LsapsError, OutputError
from .peaks import PeakEntry, detect_peaks, second_difference
from .smoothers import METHODS, PENALIZED, smooth

FLOAT_FMT = "%.12g"
# Largest relative deviation of an abscissa step from the median step.
UNIFORM_RTOL = 1e-3


def _json_float(value):
    """``value``, or None where it is not finite, which strict JSON cannot hold."""
    return value if math.isfinite(value) else None


def _fmt(value) -> str:
    # Floats first: they are most of the values of a benchmark table.
    if isinstance(value, float):
        if math.isinf(value):
            return "noise-free" if value > 0 else "-inf"
        return FLOAT_FMT % value
    return "" if value is None else str(value)


def _line_delimiter(line, delimiter):
    """The delimiter a stripped line is split on: ``delimiter`` if given,
    else comma, else tab, else None for runs of whitespace."""
    if delimiter is not None:
        return delimiter
    if "," in line:
        return ","
    if "\t" in line:
        return "\t"
    return None


def _fields(line, sep):
    """The fields of a stripped line split on ``sep``, less trailing empty
    ones; None where an empty field comes before a value."""
    parts = [p.strip() for p in line.split(sep)]
    while parts and not parts[-1]:
        parts.pop()
    return None if "" in parts else parts


def _first_bad_step(abscissa):
    """Index of the first zero step of a sorted abscissa, else of the first
    step that differs from the median step by more than ``UNIFORM_RTOL``
    of it; None for a uniform grid."""
    steps = np.diff(abscissa)
    zero = np.flatnonzero(steps == 0)
    if zero.size:
        return int(zero[0])
    median = np.median(steps)
    steps -= median
    off = np.flatnonzero(np.abs(steps, out=steps) > UNIFORM_RTOL * median)
    return int(off[0]) if off.size else None


def _first_row(line, delimiter):
    """(sep, header) for a file whose first non-blank line, stripped, is
    ``line``: the delimiter the line is split on, and whether it is the
    single header line. None where it has fewer than two fields or an
    empty one."""
    sep = _line_delimiter(line, delimiter)
    parts = _fields(line, sep)
    if parts is None or len(parts) < 2:
        return None
    try:
        float(parts[0]), float(parts[1])
    except ValueError:
        return sep, True
    return sep, False


# The decimal reader of ``ingest`` (``_read_decimal``). A value is
# M·10**q for an integer M < 10**19, and Eisel–Lemire (D. Lemire, "Number
# parsing at a gigabyte per second", Softw. Pract. Exp. 51(8), 2021) rounds
# it to float64 with one 64×64→128-bit product by a power of five.
# For q = i + _Q_MIN − 1, _POW5[i] is 5**q scaled into [2**63, 2**64) and
# rounded down, and _EXP2[i] is ⌊log2 10**q⌋ + 63 + 1023 modulo 2**64: the
# biased exponent of M·10**q, once the product's top bit is added and M's
# shift taken away. The first and the last row, past either end of
# [_Q_MIN, _Q_MAX], hold a product of 0 and an exponent no float has.
_Q_MIN, _Q_MAX = -342, 308


def _pow5_tables():
    scaled, exponents = [0], [1 << 63]
    for q in range(_Q_MIN, _Q_MAX + 1):
        p = 5 ** abs(q)
        if q >= 0:
            g = p.bit_length() - 1  # ⌊log2 5**q⌋
            scaled.append(p << (63 - g) if g <= 63 else p >> (g - 63))
        else:
            g = -p.bit_length()
            scaled.append((1 << (63 - g)) // p)
        exponents.append((g + q + 63 + 1023) % (1 << 64))
    scaled.append(0)
    exponents.append(1 << 63)
    return np.array(scaled, np.uint64), np.array(exponents, np.uint64)


_POW5, _EXP2 = _pow5_tables()
# A mantissa's digits, right-aligned in 24 bytes: the 32 bytes that end
# where the mantissa ends are read as four little-endian words, and again
# one byte earlier. The digits after the point (all of them, where there is
# none) are taken from the first reading and those before it from the
# second, which closes the gap of the point. Row k·25 + d of _AFTER and of
# _BEFORE masks them in either reading for a mantissa of d digits, k after
# its point (k = 24 for none). A mask byte is 0x0F, which takes an ASCII
# digit to its value; word 0 holds no digit.
_s = np.arange(24)
_d = _s >= 24 - np.arange(25)[None, :, None]
_k = _s >= 24 - np.arange(25)[:, None, None]
_AFTER, _BEFORE = (np.concatenate([np.zeros((25, 25, 8), np.uint8), 15 * m.astype(np.uint8)],
                                  axis=2).reshape(625, 32).view("<u8")
                   for m in (_d & _k, _d & ~_k))
del _s, _d, _k
# Bytes read at a time: the reader's temporaries are those of one chunk.
DECIMAL_CHUNK = 1 << 17
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)


def _eight_digits(words):
    """The integer of the 8 digit values (0 to 9) of each little-endian
    word, the first byte the most significant: three multiply-adds that
    join pairs, then quads, then the eight (Lemire's SWAR method)."""
    words = words * _U64(10) + (words >> _U64(8))
    return ((words & _U64(0x000000FF000000FF)) * _U64(100 + (1000000 << 32))
            + ((words >> _U64(16)) & _U64(0x000000FF000000FF)) * _U64(1 + (10000 << 32))
            ) >> _U64(32)


def _eisel_lemire(m, q, negative):
    """(values, unsure): the float64 nearest (−1)**negative · m · 10**q
    for uint64 m and int q, wherever unsure is False.

    m, shifted left to its top bit, times the 64-bit _POW5 of q lies below
    the exact product by less than m. So the top 54 bits of the 128-bit
    product, 53 and a rounding bit, are the exact product's unless the 9
    bits below them are all ones and a carry could reach them; rounding
    half up is exact unless the product is exactly halfway. Those values,
    q outside the table, and results that are subnormal or overflow are
    unsure. Every integer is uint64, so that numpy 1.x gives the dtypes of
    numpy 2.
    """
    i = np.clip(q, _Q_MIN - 1, _Q_MAX + 1)
    i -= _Q_MIN - 1
    zero = m == _U64(0)
    m = np.maximum(m, _U64(1))
    # Leading zeros from float64's exponent field; where the conversion
    # rounded up to a power of two, one short, and mended below.
    shift = m.astype(np.float64).view(np.uint64)
    shift >>= _U64(52)
    np.subtract(_U64(64 + 1022), shift, out=shift)
    m <<= shift
    short = (m >> _U64(63)) ^ _U64(1)
    m <<= short
    shift += short
    not_m = ~m
    # hi·2**64 + lo = m·p, from the 32-bit halves of m and p.
    m1 = m >> _U64(32)
    m &= _LOW32
    p0 = _POW5[i]
    p1 = p0 >> _U64(32)
    p0 &= _LOW32
    lo = m * p0
    mid = lo >> _U64(32)
    lo &= _LOW32
    hi = m1 * p1
    for cross in (m * p1, m1 * p0):
        hi += cross >> _U64(32)
        cross &= _LOW32
        mid += cross
    hi += mid >> _U64(32)
    mid <<= _U64(32)
    lo |= mid
    upper = hi >> _U64(63)
    bits = hi >> (upper + _U64(9))
    unsure = (hi & _U64(0x1FF)) == _U64(0x1FF)
    unsure &= lo >= not_m
    halfway = (hi << (_U64(55) - upper)) == _U64(0)
    halfway &= lo == _U64(0)
    round_up = bits & _U64(1)
    halfway &= round_up == _U64(1)
    unsure |= halfway
    bits += round_up
    bits >>= _U64(1)
    carry = bits >> _U64(53)
    bits >>= carry
    exponent = _EXP2[i]
    exponent += upper
    exponent += carry
    exponent -= shift
    unsure |= exponent - _U64(1) > _U64(2045)
    bits &= _U64((1 << 52) - 1)
    exponent <<= _U64(52)
    bits |= exponent
    bits[zero] = 0
    unsure &= ~zero
    bits |= negative.astype(np.uint64) << _U64(63)
    return bits.view(np.float64), unsure


def _parse_decimal(buf, size, delim):
    """The float64 values of the first ``size`` bytes of ``buf``, whole
    lines of two fields each, or None where they are not all in the
    grammar of ``_read_decimal`` or one is not finite. ``delim`` is the
    delimiter's byte."""
    u = np.frombuffer(buf, np.uint8, count=size)
    # Every byte but a digit: the separators, points, exponent marks and
    # signs, and bytes outside the grammar, which the counts below find.
    at = np.flatnonzero((u - np.uint8(48)) > 9)
    kind = u[at]
    is_sep = (kind == delim) | (kind == 10)
    at_sep = np.flatnonzero(is_sep)
    end = at[at_sep]
    # Separators alternate: the delimiter, then a newline.
    if len(end) % 2 or not ((kind[at_sep[::2]] == delim).all()
                            and (kind[at_sep[1::2]] == 10).all()):
        return None
    field = np.cumsum(is_sep)  # the field of each non-separator
    at_point = np.flatnonzero(kind == 46)
    at_exp = np.flatnonzero((kind | 32) == 101)
    at_sign = np.flatnonzero((kind == 43) | (kind == 45))
    if len(end) + len(at_point) + len(at_exp) + len(at_sign) != len(at):
        return None
    point, point_field = at[at_point], field[at_point]
    exp, exp_field = at[at_exp], field[at_exp]
    if not ((np.diff(point_field) > 0).all() and (np.diff(exp_field) > 0).all()):
        return None  # two points or exponents in a field
    # A sign starts a field or an exponent; u[-1] is a newline.
    prior = u[at[at_sign] - 1]
    if not (((prior | 32) == 101) | (prior == delim) | (prior == 10)).all():
        return None
    start = np.empty_like(end)
    start[0] = 0
    start[1:] = end[:-1] + 1
    mantissa_end = end.copy()
    mantissa_end[exp_field] = exp
    has_point = np.zeros(len(end), bool)
    has_point[point_field] = True
    after = np.zeros(len(end), np.intp)  # digits after the point
    after[point_field] = mantissa_end[point_field] - point - 1
    if not (after >= 0).all():
        return None  # a point in an exponent
    first = u[start]
    negative = first == 45
    digits = mantissa_end - start - has_point - (negative | (first == 43))
    if not ((digits >= 1).all() and (digits <= 24).all()):
        return None
    q = -after
    if len(exp):
        sign = u[exp + 1]
        last = end[exp_field] - 1
        width = last - exp - ((sign == 43) | (sign == 45))
        if not ((width >= 1).all() and (width <= 3).all()):
            return None
        value = u[last].astype(np.intp) - 48
        for place in (1, 2):
            value += np.where(width > place, u[last - place].astype(np.intp) - 48, 0) * 10 ** place
        q[exp_field] += np.where(sign == 45, -value, value)
    # The digits of each mantissa, in the layout of _AFTER and _BEFORE.
    padded = np.empty(size + 32, np.uint8)
    padded[:32] = 48
    padded[32:] = u
    windows = np.ndarray((size + 1,), "V32", padded, strides=(1,))
    words = windows[mantissa_end].view("<u8")
    row = np.where(has_point, after, 24) * 25 + digits
    earlier = np.empty_like(words)
    earlier[0] = 0
    np.right_shift(words[:-1], _U64(56), out=earlier[1:])
    earlier[1:] |= words[1:] << _U64(8)
    earlier &= np.take(_BEFORE, row, axis=0).ravel()
    words &= np.take(_AFTER, row, axis=0).ravel()
    words |= earlier
    del earlier
    groups = _eight_digits(words).reshape(-1, 4)
    m = groups[:, 1] * _U64(10**16)
    m += groups[:, 2] * _U64(10**8)
    m += groups[:, 3]
    values, unsure = _eisel_lemire(m, q, negative)
    unsure |= groups[:, 1] >= _U64(1000)  # m ≥ 10**19, past uint64's digits
    for i in np.flatnonzero(unsure).tolist():
        values[i] = value = float(buf[start[i] : end[i]])
        if math.isinf(value):
            return None  # an overflow, whose line the line parser names
    return values


def _line_chunks(fh, buf):
    """(chunk, size) for ``buf`` and then the rest of the binary file
    ``fh``, read DECIMAL_CHUNK bytes at a time: the first ``size`` bytes of
    each chunk are whole lines, and a size of 0 marks a chunk's worth of
    bytes without a line end. A last line that ends the file gets "\\n"."""
    while True:
        size = buf.rfind(b"\n") + 1
        if size or len(buf) >= DECIMAL_CHUNK:
            yield buf, size
        block = fh.read(DECIMAL_CHUNK)
        if not block:
            break
        buf = buf[size:] + block
    if buf[size:]:
        yield buf[size:] + b"\n", len(buf) - size + 1


def _read_decimal(path, delimiter):
    """(abscissa, intensity, lines) of a file in one layout, or None;
    ``lines[i]`` is the line of row i in the file.

    The layout: after a UTF-8 byte-order mark, blank lines and a header
    line, all as ``_first_row`` and the line parser read them, every line
    is two fields split by one single-byte delimiter, a single space where
    the first row splits on whitespace, and ends in "\\n" or "\\r\\n" (the
    last line may end the file instead). A field is
    ``[+-]?(\\d+\\.?\\d*|\\.\\d+)([eE][+-]?\\d{1,3})?`` with at most 24
    digits before the exponent. Each value is the float ``float()``
    reads; any other byte layout (a lone CR, runs of spaces, blank lines
    past the first row, a third field, ``nan``, an overflow, ``1_0``,
    non-ASCII bytes, a comma in a tab-separated file) returns None. The
    file is read once, in chunks of whole lines, so that one chunk's
    temporaries are held at a time.
    """
    with path.open("rb") as fh:
        buf = fh.read(DECIMAL_CHUNK)
        start = 3 if buf.startswith(b"\xef\xbb\xbf") else 0
        lineno = 1
        while True:
            end = buf.find(b"\n", start)
            if end < 0:  # the last line, unless the chunk ends inside a line
                if start >= len(buf) or len(buf) == DECIMAL_CHUNK:
                    return None
                end = len(buf)
            text = buf[start:end].removesuffix(b"\r")
            if b"\r" in text:
                return None  # a line end to the line parser
            try:
                line = text.decode("utf-8").strip()
            except UnicodeDecodeError:
                return None
            if line:
                break
            start = end + 1
            lineno += 1
        first = _first_row(line, delimiter)
        if first is None:
            return None
        sep, header = first
        sep = " " if sep is None else sep
        if len(sep) != 1 or not sep.isascii() or sep in "0123456789+-.eE\r\n":
            return None
        # The columns are sized from the rows of the part of the file read so
        # far, a twentieth more, and grown where a later part packs more rows:
        # one array, not a list of chunks, which would leave the heap in
        # pieces for the fit that follows.
        file_size = os.fstat(fh.fileno()).st_size
        columns, n = np.empty((2, 0)), 0
        for buf, size in _line_chunks(fh, buf[end + 1 if header else start :]):
            if buf.find(b"\r", 0, size) >= 0:
                buf = buf[:size].replace(b"\r\n", b"\n")  # a lone CR stays, and declines
                size = len(buf)
            values = _parse_decimal(buf, size, ord(sep)) if size else None
            if values is None:
                return None
            rows = len(values) // 2
            if n + rows > columns.shape[1]:
                grown = np.empty((2, (n + rows) * file_size // fh.tell() * 21 // 20 + rows))
                grown[:, :n] = columns[:, :n]
                columns = grown
            columns[0, n : n + rows] = values[0::2]
            columns[1, n : n + rows] = values[1::2]
            n += rows
    return columns[0, :n], columns[1, :n], range(lineno + header, lineno + header + n)


def _ingest_lines(path, delimiter):
    """(abscissa, intensity, lines) of a file read line by line, in file
    order; ``lines[i]`` is the line of row i. A row it cannot read raises
    an ``IngestError`` that names its line."""
    # Typed columns, not a list of tuples: 24 bytes a row, which keeps
    # ingest's peak memory down on large files.
    xs, ys, linenos = array("d"), array("d"), array("q")
    nonblank = 0
    with path.open(encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            nonblank += 1
            parts = _fields(line, _line_delimiter(line, delimiter))
            if parts is None:  # an empty field: a missing value, not a header
                raise IngestError(f"line {lineno}: unparseable row {line!r}")
            if len(parts) < 2:
                raise IngestError(f"line {lineno}: expected two columns, got {len(parts)}")
            try:
                a, b = float(parts[0]), float(parts[1])
            except ValueError:
                if nonblank == 1:
                    continue  # single auto-detected header line
                raise IngestError(f"line {lineno}: unparseable row {line!r}") from None
            if not (math.isfinite(a) and math.isfinite(b)):
                raise IngestError(f"line {lineno}: non-finite value")
            xs.append(a)
            ys.append(b)
            linenos.append(lineno)
    return np.asarray(xs), np.asarray(ys), linenos


def _grid(abscissa, intensity, lines):
    """(abscissa, intensity) sorted by abscissa, where they hold at least 5
    points on a uniform grid; else an ``IngestError``, which names
    ``lines[i]``, the file line of row i, for a non-uniform step."""
    if len(abscissa) < 5:
        raise IngestError(f"need at least 5 data points, got {len(abscissa)}")
    order = None
    if not (abscissa[1:] >= abscissa[:-1]).all():
        # Sorted, the stable sort would be the identity.
        order = np.argsort(abscissa, kind="stable")
        abscissa, intensity = abscissa[order], intensity[order]
    i = _first_bad_step(abscissa)
    if i is None:
        return abscissa, intensity
    steps = np.diff(abscissa)
    if steps[i] == 0:
        raise IngestError("duplicate abscissa values")
    # Every smoother assumes unit spacing, so the grid must be uniform.
    median = float(np.median(steps))
    line = lines[i + 1 if order is None else order[i + 1]]
    raise IngestError(
        f"line {line}: abscissa step {FLOAT_FMT % steps[i]} differs from "
        f"the median step {FLOAT_FMT % median} by more than {UNIFORM_RTOL:g} of it; "
        "the abscissa must be uniformly spaced"
    )


def ingest(path, delimiter=None):
    """Parse a two-column delimited spectrum file into (abscissa, intensity).

    Both are 1-d float arrays of equal length, at least 5, with every
    value finite and the abscissa strictly increasing.
    Delimiter (comma, tab, or whitespace) and a single header line are
    auto-detected; an explicit ``delimiter`` overrides detection. An
    empty field before a value is an error; trailing empty fields are
    dropped. Rows are sorted by abscissa; duplicate abscissa values, and
    steps that differ from the median step by more than ``UNIFORM_RTOL``
    of it, are rejected (``_grid``).

    A file in the layout of ``_read_decimal`` (two decimal numbers a line
    split by one single-byte delimiter, a single space where the first
    row splits on whitespace, and "\\n" or "\\r\\n" line ends) is read by
    that numpy reader, once, which gives the floats ``float()`` gives.
    Any other file (runs of whitespace, a third column, a lone CR, mixed
    delimiters, ``nan`` or an overflow) is read line by line, about five
    times slower (165 against 31 ms at n = 1e5). Either way an error has
    the same message, which names the offending line where there is one.
    The file is read as UTF-8, past a leading byte-order mark if it has
    one. A path that cannot be read or decoded as text, such as a
    directory, raises ``IngestError`` too.
    """
    if delimiter == "":
        raise InvalidConfigError("delimiter must not be empty")
    path = Path(path)
    if not path.exists():
        raise IngestError(f"input file not found: {path}")
    try:
        columns = _read_decimal(path, delimiter) or _ingest_lines(path, delimiter)
    except (OSError, UnicodeDecodeError) as exc:  # a directory, or not UTF-8 text
        raise IngestError(f"cannot read {path}: {exc}") from None
    return _grid(*columns)


# Rows formatted per string or array operation; bounds the memory of a block.
WRITE_BLOCK_ROWS = 8192


@contextmanager
def _output_dir(path):
    """The output directory ``path``, made if missing; an OSError while
    making it or writing into it is an ``OutputError``."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        yield out_dir
    except OSError as exc:
        raise OutputError(f"cannot write output to {path}: {exc}") from None


def _write_columns(path, columns, header=None):
    """Write ``columns`` tab-separated in FLOAT_FMT, which prints integers
    as such, each row ending in "\n" on every platform."""
    row = "\t".join([FLOAT_FMT] * len(columns)) + "\n"
    with Path(path).open("w", newline="\n") as fh:
        if header is not None:
            fh.write("\t".join(header) + "\n")
        for start in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
            block = np.column_stack([c[start : start + WRITE_BLOCK_ROWS] for c in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


# The FLOAT_FMT kernel of ``_write_signal``. A value's text is laid out in
# SLOTS fixed byte slots: a sign, the "0.000" of a fixed-notation value
# below 1, 12 digits each followed by a slot for the decimal point, and an
# exponent "e-05". Slots a value does not use hold 0 bytes.
SLOTS = 34
# 10**k for k in [0, 22], exactly: 5**22 < 2**53.
_POW10 = np.array([float(10**k) for k in range(23)])
# Rows 1000·i + c, where chunk i of a value's 12 digits, 3 digits each, is
# c: c's digits as ASCII, each followed by a 0 point slot, and the count of
# the value's digits up to the last nonzero one of chunk i, or 0 if c is 0.
_c = np.arange(1000)
_CHUNK_DIGITS = np.zeros((4000, 6), np.uint8)
_CHUNK_DIGITS[:, ::2] = np.tile(48 + _c[:, None] // [100, 10, 1] % 10, (4, 1))
_SIGNIFICANT = np.where(_c != 0, 3 * np.arange(4)[:, None]
                        + (_c % 10 != 0) + (_c % 100 != 0) + (_c != 0), 0).astype(np.int8).ravel()
del _c


def _slot_tables():
    """The bytes of each key's slots apart from the digits, and the mask
    of the digit slots it shows. A key stands for a decimal exponent x in
    [-11, 12], a count nd in [1, 12] of significant digits and a sign:
    key = ((x + 11)·12 + nd − 1)·2 + (1 if negative else 0)."""
    x, nd, neg = (a.reshape(-1, 1) for a in
                  np.meshgrid(np.arange(-11, 13), np.arange(1, 13), [0, 1], indexing="ij"))
    fixed = (x >= -4) & (x < 12)
    p = np.where(fixed, x, 0)  # the digit the point follows; below 0, it is in the prefix
    j = np.arange(12)
    template = np.zeros((len(x), SLOTS), np.uint8)
    template[:, :1] = 45 * neg
    prefix = np.where(p < 0, 1 - p, 0)  # "0." and -x - 1 zeros
    template[:, 1:6] = np.where(np.arange(5) < prefix, np.frombuffer(b"0.000", np.uint8), 0)
    template[:, 7:30:2] = np.where((j == p) & (j + 1 < nd), 46, 0)
    exponent = ~fixed[:, 0]
    template[exponent, 30] = 101
    template[exponent, 31] = np.where(x[exponent, 0] < 0, 45, 43)
    template[exponent, 32] = 48 + abs(x[exponent, 0]) // 10
    template[exponent, 33] = 48 + abs(x[exponent, 0]) % 10
    keep = np.zeros((len(x), 24), np.uint8)
    keep[:, ::2] = np.where(j < np.maximum(nd, p + 1), 255, 0)
    return template, keep


_TEMPLATE, _KEEP = _slot_tables()


def _format_slots(values):
    """The text of FLOAT_FMT % v for each of ``values``, a float64 array,
    one row of SLOTS bytes per value, in the layout above.

    Exactness: with e = ⌊log10|v|⌋ and k = 11 − e in [0, 22], 10**k is
    exact, so s = |v|·10**k is rounded once, by at most 2**-14 where s <
    1e12 + 1. Where m = rint(s) lies within 0.499 of s, the exact product
    rounds to m too: m is v's 12 significant digits, with exponent e. The
    carry m = 1e12, or log10 one too small, is 1e11 with exponent e + 1.
    Every other value is formatted by FLOAT_FMT % v on its own: k outside
    [0, 22] (|v| below 1e-11 or from 1e12 up, subnormals, inf and NaN), s
    below 1e11 or m above 1e12 (log10 one off at a power of ten), and s
    within 1e-3 of a decimal tie. Zero is m = 0, and −0.0 prints as "-0",
    as FLOAT_FMT prints it. Each temporary is dropped once used, which
    keeps a block's peak memory down.
    """
    a = np.abs(values)
    with np.errstate(all="ignore"):  # log10 of 0, inf and NaN
        k = np.floor(np.log10(a))
        np.subtract(11, k, out=k)
        exact = (k >= 0) & (k <= 22)
        s = np.take(_POW10, np.where(exact, k, 0).astype(np.intp))
        s *= a
        del a
        m = np.rint(s)
        exact &= (s >= 1e11) & (m <= 1e12)
        s -= m
        exact &= np.abs(s) <= 0.499
    del s
    carry = m == 1e12
    key = np.where(exact, 11 + carry - k, 0).astype(np.intp)
    del k
    exact |= values == 0
    m = np.where(carry, 1e11, np.where(exact, m, 0))
    # m's chunks, each step exact in float64, as rows of the chunk tables.
    high = np.floor(m / 1e6)
    low = m - high * 1e6
    del m
    chunks = np.empty((len(values), 4), np.intp)
    chunk = np.floor(high / 1e3)
    chunks[:, 0] = chunk
    chunks[:, 1] = high + (1e3 - 1e3 * chunk)
    chunk = np.floor(low / 1e3)
    chunks[:, 2] = chunk + 2e3
    chunks[:, 3] = low + (3e3 - 1e3 * chunk)
    del high, low, chunk
    digits = np.take(_CHUNK_DIGITS, chunks, axis=0).reshape(len(values), 24)
    nd = np.take(_SIGNIFICANT, chunks)
    del chunks
    nd = np.maximum(np.maximum(nd[:, 0], nd[:, 1]), np.maximum(nd[:, 2], nd[:, 3]))
    key = ((key + 11) * 12 + np.maximum(nd, 1) - 1) * 2 + np.signbit(values)
    digits &= np.take(_KEEP, key, axis=0)
    slots = np.take(_TEMPLATE, key, axis=0)
    slots[:, 6:30] |= digits
    fallback = np.flatnonzero(~exact)
    if fallback.size:
        text = b"".join((FLOAT_FMT % v).encode().ljust(SLOTS, b"\0")
                        for v in values[fallback].tolist())
        slots[fallback] = np.frombuffer(text, np.uint8).reshape(-1, SLOTS)
    return slots


def _write_signal(out_dir, abscissa, smoothed, d2):
    """Write smoothed.txt and second_derivative.txt, the bytes that
    ``_write_columns`` writes on POSIX, in lockstep, a block of
    WRITE_BLOCK_ROWS rows at a time. ``d2`` leaves out the first and the
    last point. Lines end in "\\n" on every platform.

    Each column of a block is laid out by ``_format_slots``, one row of
    SLOTS bytes per value, which is exact or falls back to FLOAT_FMT % v
    (its docstring gives the argument and the values that fall back). A
    row of a file is the abscissa's slots, a tab, the value's slots and a
    newline, and dropping the 0 bytes leaves the text.
    """
    n = len(abscissa)
    with (out_dir / "smoothed.txt").open("wb") as fx, \
            (out_dir / "second_derivative.txt").open("wb") as fd:
        for start in range(0, n, WRITE_BLOCK_ROWS):
            stop = min(start + WRITE_BLOCK_ROWS, n)
            first, last = max(start, 1), min(stop, n - 1)
            rows = np.empty((stop - start, 2 * SLOTS + 2), np.uint8)
            rows[:, :SLOTS] = _format_slots(abscissa[start:stop])
            rows[:, SLOTS] = 9
            rows[:, SLOTS + 1 : -1] = _format_slots(smoothed[start:stop])
            rows[:, -1] = 10
            fx.write(_text(rows))
            # The abscissa is formatted once, for the rows of both files.
            rows = rows[first - start : last - start]
            rows[:, SLOTS + 1 : -1] = _format_slots(d2[first - 1 : last - 1])
            fd.write(_text(rows))


def _text(rows):
    """The bytes of ``rows`` without their 0 bytes."""
    return rows.tobytes().translate(None, b"\0")


def _run_smooth(args) -> int:
    abscissa, y = ingest(args.input, delimiter=args.delimiter)

    grid = select_mod.DEFAULT_GRID
    if args.grid is not None:
        try:
            grid = tuple(float(g) for g in args.grid.split(","))
        except ValueError:
            raise InvalidConfigError(
                f"--grid must be comma-separated numbers, got {args.grid!r}"
            ) from None
    clip = args.clip == "on"

    summary = {
        "input": str(args.input),
        "method": args.method,
        "clip": clip,
        "n": y.shape[0],
    }
    curve = None
    t0 = time.perf_counter()
    if args.auto:
        result = select_mod.select_parameter(y, method=args.method, grid=grid, clip=clip)
        smoothed = result.smoothed
        curve = result.curve
        summary["selected_parameter"] = result.best_parameter
        summary["effective_lambda"] = _json_float(result.effective_lambda)
    else:
        if args.method in PENALIZED:
            parameter = args.param
            summary["parameter"] = args.param
        elif args.method == "sg":
            parameter = (args.window, args.order)
            summary.update(window=args.window, poly_order=args.order)
        else:
            parameter = args.window
            summary["window"] = args.window
        smoothed, lam = smooth(y, args.method, parameter, clip)
        if lam is not None:
            summary["effective_lambda"] = _json_float(lam)
    summary["smooth_time_s"] = time.perf_counter() - t0
    peaks = None
    if args.peaks is not None:
        peaks = detect_peaks(smoothed, args.peaks, abscissa=abscissa)

    # Every check has passed; only now is anything written.
    with _output_dir(args.out) as out_dir:
        _write_signal(out_dir, abscissa, smoothed, second_difference(smoothed))

        if peaks is not None:
            names = [f.name for f in fields(PeakEntry)]
            _write_columns(out_dir / "peaks.txt",
                           [[getattr(p, name) for p in peaks] for name in names], names)
            summary["peaks_found"] = len(peaks)
            summary["peaks_requested"] = args.peaks

        if curve is not None:
            _write_columns(out_dir / "cv_curve.txt", (curve.grid, curve.losses),
                           ("parameter", "loss"))
            summary["cv_curve"] = {
                "grid": list(curve.grid),
                "losses": [_json_float(v) for v in curve.losses],
                "best_index": curve.best_index,
            }

        _write_summary(out_dir, summary)
    return 0


def _write_summary(out_dir: Path, summary: dict):
    """Write ``summary`` to out_dir/summary.json, indented, with one line end."""
    with (out_dir / "summary.json").open("w", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


def _require(cond, message):
    if not cond:
        raise InvalidConfigError(message)


def load_scenario_file(path):
    """Parse and validate a benchmark scenario JSON file.

    Returns (scenario, resolutions, sigmas, method_grids, seeds), the
    last four as ``sim.check_sweep`` returns them.

    Raises
    ------
    LsapsError
        With a message that starts "scenario file: ": an ``LsapsError``
        if the file cannot be read or is not JSON, an InvalidConfigError
        if the JSON is not of the scenario's shape or ``check_sweep``
        rejects a value, and the error of ``sim.LorentzianPeak``,
        ``Background`` or ``SimScenario`` for a value they reject.
    """
    try:
        with Path(path).open(encoding="utf-8-sig") as fh:
            return _parse_scenario(json.load(fh))
    except LsapsError as exc:
        raise type(exc)(f"scenario file: {exc}") from None
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise LsapsError(f"scenario file: {exc}") from None


def _parse_scenario(data):
    """The scenario of the JSON value ``data``. Its shape (objects, lists
    and keys) is checked here; its values by the sim dataclasses and
    ``sim.check_sweep``."""
    from . import sim  # not at module top: ``lsaps smooth`` never needs it

    _require(isinstance(data, dict), "top level must be a JSON object")
    peaks = sim.DEFAULT_PEAKS
    if "peaks" in data:
        _require(isinstance(data["peaks"], list), "'peaks' must be a list")
        for i, p in enumerate(data["peaks"]):
            _require(isinstance(p, dict), f"peaks[{i}] must be an object")
            for key in ("center", "height", "halfwidth"):
                _require(key in p, f"peaks[{i}] missing '{key}'")
        peaks = tuple(sim.LorentzianPeak(p["center"], p["height"], p["halfwidth"])
                      for p in data["peaks"])

    x_range = data.get("x_range", list(sim.DEFAULT_RANGE))
    _require(isinstance(x_range, list) and len(x_range) == 2, "'x_range' must be a list of two numbers")

    background = data.get("background", {})
    _require(isinstance(background, dict), "'background' must be an object")
    for key in background:
        _require(key in {f.name for f in fields(sim.Background)}, f"unknown 'background' key {key!r}")
    background = sim.Background(**background) if background else None

    methods = data.get("methods", sim.COMPARISON_GRIDS)
    _require(isinstance(methods, dict), "'methods' must be an object")
    resolutions, sigmas, method_grids, seeds = sim.check_sweep(
        data.get("resolutions", [1000]), data.get("noise_sigmas", [0.0]), methods,
        data.get("seeds", [0]))
    scenario = sim.SimScenario(peaks=peaks, n=resolutions[0], x_range=tuple(x_range),
                               background=background)
    return scenario, resolutions, sigmas, method_grids, seeds


def _param_str(parameter):
    """A sweep parameter as text: a (window, poly_order) pair as "5/2", and
    a float in FLOAT_FMT, inf too, which ``_fmt`` would name as an SNR."""
    if isinstance(parameter, tuple):
        return "/".join(str(p) for p in parameter)
    return FLOAT_FMT % parameter if isinstance(parameter, float) else str(parameter)


def _csv_field(text):
    """``text`` as csv.writer writes a field: quoted, with its quotes
    doubled, where it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# Rows per string operation of a table; a row holds up to ten fields, so a
# block holds about as many values as a block of ``_write_columns``.
TABLE_BLOCK_ROWS = 1024


def _write_table(path, columns):
    """Write the table held as ``columns``, a dict of one list per column,
    byte for byte as csv.writer writes its rows. The header is the dict's
    keys, in their order.

    Each block of rows is written with one string operation, and each
    column of a block takes its format from the values it holds: ``%d``
    if they are all ints, FLOAT_FMT if they are all finite floats, and
    otherwise ``_fmt`` (``_param_str`` for the parameter), once per
    distinct object.
    """
    with path.open("w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for start in range(0, len(next(iter(columns.values()))), TABLE_BLOCK_ROWS):
            specs, block = [], []
            for name, values in columns.items():
                column = values[start : start + TABLE_BLOCK_ROWS]
                kinds = set(map(type, column))
                if kinds == {int}:
                    specs.append("%d")
                elif kinds == {float} and np.isfinite(column).all():
                    specs.append(FLOAT_FMT)
                else:
                    fmt = _param_str if name == "parameter" else _fmt
                    distinct = {id(v): v for v in column}
                    text = {key: _csv_field(fmt(v)) for key, v in distinct.items()}
                    column = [text[id(v)] for v in column]
                    specs.append("%s")
                block.append(column)
            row = ",".join(specs) + "\r\n"
            fh.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def _run_benchmark(args) -> int:
    from . import sim

    scenario, resolutions, sigmas, method_grids, seeds = load_scenario_file(args.scenario)
    report = sim.run_benchmark(scenario, resolutions, sigmas, method_grids, seeds)
    summary = {
        "scenario": str(args.scenario),
        "resolutions": resolutions,
        "noise_sigmas": sigmas,
        "seeds": seeds,
        "methods": {m: len(g) for m, g in method_grids.items()},
        "cells": len(report.cells["method"]),
    }
    # The sweep has returned; only now is anything written.
    with _output_dir(args.out) as out_dir:
        _write_table(out_dir / "cells.csv", report.cells)
        _write_table(out_dir / "aggregates.csv", report.aggregates)
        _write_table(out_dir / "best.csv", report.best)
        _write_summary(out_dir, summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsaps",
        description="Penalized spectral smoothing, parameter selection, and peak detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sm = sub.add_parser("smooth", help="smooth one spectrum file")
    sm.add_argument("input", help="two-column spectrum file")
    sm.add_argument("--method", choices=METHODS, default="lsa-ps")
    mode = sm.add_mutually_exclusive_group()
    mode.add_argument("--param", type=float, help="fixed smoothness parameter (ps / lsa-ps)")
    mode.add_argument("--auto", action="store_true", help="CV-based parameter selection")
    sm.add_argument("--window", type=int, default=5, help="window length (sg / gaussian)")
    sm.add_argument("--order", type=int, default=2, help="polynomial order (sg)")
    sm.add_argument("--clip", choices=["on", "off"], default="on")
    sm.add_argument("--grid", help="comma-separated candidate grid override")
    sm.add_argument("--peaks", type=int, help="detect this many top peaks")
    sm.add_argument("--delimiter", help="explicit column delimiter")
    sm.add_argument("--out", default="lsaps-out", help="output directory")
    sm.set_defaults(func=_run_smooth)

    bm = sub.add_parser("benchmark", help="run a synthetic benchmark sweep")
    bm.add_argument("scenario", help="scenario JSON file")
    bm.add_argument("--out", default="lsaps-benchmark", help="output directory")
    bm.set_defaults(func=_run_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "smooth":
        if args.method in PENALIZED and not args.auto and args.param is None:
            parser.error("ps / lsa-ps need --param or --auto")
        if args.method not in PENALIZED and args.param is not None:
            parser.error("--param applies to ps / lsa-ps only; sg and gaussian take --window")
        if args.grid is not None and not args.auto:
            parser.error("--grid applies to --auto only")
    try:
        return args.func(args)
    except LsapsError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
