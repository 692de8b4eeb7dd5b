import _pyio
import csv
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsaps import cli, sim
from lsaps.sim import SimScenario, add_noise, generate_clean
from lsaps.smoothers import smooth


def write_spectrum(path, abscissa, intensity, sep="\t", header=None):
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for a, b in zip(abscissa, intensity):
            fh.write(f"{float(a)!r}{sep}{float(b)!r}\n")


@pytest.fixture()
def noisy_file(tmp_path):
    scenario = SimScenario(n=400)
    t = scenario.grid()
    y, _ = add_noise(generate_clean(scenario), 0.2, 5)
    path = tmp_path / "spectrum.txt"
    write_spectrum(path, t, y)
    return path, (t, y)


class TestIngest:
    def test_tab_separated(self, tmp_path, noisy_file):
        path, (t, y) = noisy_file
        abscissa, intensity = cli.ingest(path)
        assert np.allclose(abscissa, t)
        assert np.allclose(intensity, y)

    def test_comma_and_header(self, tmp_path):
        path = tmp_path / "s.csv"
        write_spectrum(path, [0.0, 1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0, 9.0],
                       sep=",", header="wavenumber,intensity")
        abscissa, intensity = cli.ingest(path)
        assert abscissa.shape == intensity.shape == (5,)
        assert intensity[0] == 5.0

    def test_whitespace(self, tmp_path):
        path = tmp_path / "s.dat"
        write_spectrum(path, [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0, 5.0], sep="   ")
        assert cli.ingest(path)[1].shape == (5,)

    def test_rows_sorted(self, tmp_path):
        path = tmp_path / "s.txt"
        write_spectrum(path, [4.0, 0.0, 2.0, 1.0, 3.0], [40.0, 0.0, 20.0, 10.0, 30.0])
        abscissa, intensity = cli.ingest(path)
        assert np.array_equal(abscissa, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(intensity, [0.0, 10.0, 20.0, 30.0, 40.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.IngestError):
            cli.ingest(tmp_path / "nope.txt")

    def test_duplicate_abscissa(self, tmp_path):
        path = tmp_path / "s.txt"
        write_spectrum(path, [0.0, 1.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(cli.IngestError):
            cli.ingest(path)

    def test_too_few_points(self, tmp_path):
        path = tmp_path / "s.txt"
        write_spectrum(path, [0.0, 1.0], [1.0, 2.0])
        with pytest.raises(cli.IngestError):
            cli.ingest(path)

    def test_bad_row_past_header(self, tmp_path):
        path = (tmp_path / "s.txt")
        path.write_text("a\tb\n0\t1\nbad\trow\n2\t3\n3\t4\n4\t5\n")
        with pytest.raises(cli.IngestError, match="line 3"):
            cli.ingest(path)

    def test_one_column(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(cli.IngestError, match="two columns"):
            cli.ingest(path)

    def test_non_finite(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0\t1\n1\tnan\n2\t3\n3\t4\n4\t5\n")
        with pytest.raises(cli.IngestError, match="non-finite"):
            cli.ingest(path)

    @pytest.mark.parametrize(
        "abscissa, line", [([0.0, 1.0, 2.0, 4.0, 5.0], 4), ([5.0, 0.0, 1.0, 2.0, 4.0], 5)]
    )
    def test_non_uniform_abscissa(self, tmp_path, abscissa, line):
        # The message names the file line of the point that ends the bad step.
        path = tmp_path / "s.txt"
        write_spectrum(path, abscissa, [1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(cli.IngestError, match=f"line {line}: abscissa step 2 differs"):
            cli.ingest(path)

    def test_reingests_large_output(self, tmp_path):
        # At n = 1e5 the 12-digit abscissa of smoothed.txt is off by up to
        # 1e-7 of a step, well inside the uniform-grid tolerance.
        n = 100_000
        path = tmp_path / "big.txt"
        y = np.random.default_rng(6).standard_normal(n)
        write_spectrum(path, np.linspace(0.0, 100.0, n), y)
        out = tmp_path / "out"
        assert cli.main(["smooth", str(path), "--method", "ps", "--param", "1", "--out", str(out)]) == 0
        assert cli.ingest(out / "smoothed.txt")[1].shape == (n,)

    def test_explicit_delimiter(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0;1\n1;2\n2;3\n3;4\n4;5\n")
        assert cli.ingest(path, delimiter=";")[1].shape == (5,)


    def test_one_field_first_line(self, tmp_path):
        # Not a header: a header line must have two fields too.
        path = tmp_path / "s.txt"
        path.write_text("intensity\n0\t1\n1\t2\n2\t3\n3\t4\n4\t5\n")
        with pytest.raises(cli.IngestError, match="^line 1: expected two columns, got 1$"):
            cli.ingest(path)

    def test_fast_path_reads_written_files(self, tmp_path, noisy_file, monkeypatch):
        # Files written by `lsaps smooth` (12 digits) and at full double
        # precision with np.savetxt, as the benchmark writes its inputs,
        # never reach the line parser.
        path, (t, y) = noisy_file
        out = tmp_path / "out"
        assert cli.main(["smooth", str(path), "--method", "ps", "--param", "2", "--out", str(out)]) == 0
        full = tmp_path / "full.txt"
        np.savetxt(full, np.column_stack([t, y]), fmt="%.17g", delimiter="\t")
        files = [path, full, out / "smoothed.txt", out / "second_derivative.txt"]
        expected = [cli._ingest_lines(f, None) for f in files]

        def line_parser(*args):
            raise AssertionError("the line parser ran")

        monkeypatch.setattr(cli, "_ingest_lines", line_parser)
        for f, (abscissa, intensity) in zip(files, expected):
            got_abscissa, got_intensity = cli.ingest(f)
            assert got_abscissa.tobytes() == abscissa.tobytes()
            assert got_intensity.tobytes() == intensity.tobytes()

    @pytest.mark.parametrize("header", [None, "wavenumber\tintensity"])
    @pytest.mark.parametrize("fast", [True, False])
    def test_byte_order_mark(self, tmp_path, monkeypatch, fast, header):
        # A UTF-8 byte-order mark is not part of the first line: the file
        # reads as the same file without it, on either parser, and only
        # a header line is skipped.
        rows = [f"{i}.0\t{i * i}.5" for i in range(8)]
        if not fast:
            rows[-1] = rows[-1].replace("\t", ",")  # a mixed delimiter: the line parser reads it
        text = "\n".join([header, *rows] if header else rows) + "\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert (cli._ingest_fast(marked, None) is not None) == fast
        expected = cli.ingest(plain)
        if fast:
            def line_parser(*args):
                raise AssertionError("the line parser ran")

            monkeypatch.setattr(cli, "_ingest_lines", line_parser)
        abscissa, intensity = cli.ingest(marked)
        assert abscissa.tobytes() == expected[0].tobytes()
        assert intensity.tobytes() == expected[1].tobytes()
        assert abscissa.tolist() == [float(i) for i in range(8)]


ROW_SEPARATORS = (",", "\t", " ", "  ", ", ", " ,", "\t ", ";", "::")


@st.composite
def spectrum_files(draw):
    """The text of a spectrum file and the ``delimiter`` to ingest it with.

    Each kind of defect is drawn rarely, so that many files are well
    formed and the rest have one or two defects.
    """

    def rarely():
        return draw(st.integers(0, 4)) == 4

    delimiter = draw(st.sampled_from((None, None, None, ",", "\t", ";", "::")))
    sep = draw(st.sampled_from(ROW_SEPARATORS[:5])) if delimiter is None else delimiter
    mixed = rarely()

    n = draw(st.integers(0, 4)) if rarely() else draw(st.integers(5, 12))
    x0 = draw(st.sampled_from((0.0, -3.0, 0.5, 1000.0)))
    step = draw(st.sampled_from((1.0, 0.25, 0.1, 2.5)))
    xs = [x0 + i * step for i in range(n)]
    fault = draw(st.sampled_from(("unsorted", "duplicate", "non-uniform"))) if rarely() else None
    if fault == "unsorted":
        xs = draw(st.permutations(xs))
    elif fault == "duplicate" and n >= 2:
        xs[draw(st.integers(1, n - 1))] = xs[0]
    elif fault == "non-uniform" and n >= 3:
        xs[draw(st.integers(1, n - 1))] += 0.5 * step
    ys = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n))
    fmt = draw(st.sampled_from((repr, "%.12g".__mod__, "%.17g".__mod__)))
    cells = [[fmt(x), fmt(y)] for x, y in zip(xs, ys)]
    if cells and rarely():
        cell = draw(st.sampled_from(("nan", "inf", "-inf", "NaN", "1_0", "x")))
        cells[draw(st.integers(0, n - 1))][draw(st.integers(0, 1))] = cell

    extra = draw(st.sampled_from(("", "7", "x"))) if rarely() else ""
    pad = draw(st.sampled_from(("", " ", "\t"))) if rarely() else ""
    lines = []
    for row in cells:
        row_sep = draw(st.sampled_from(ROW_SEPARATORS)) if mixed else sep
        lines.append(pad + row_sep.join(row + ([extra] if extra else [])) + pad)
        if mixed and rarely():
            lines[-1] += draw(st.sampled_from(("\t3,4", " 3", ",3")))
    if rarely():
        lines.insert(0, draw(st.sampled_from((f"x{sep}y", "intensity", "# x y", f"1{sep}"))))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", "  ", "\t"))))
    if rarely():
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("# note", "#0\t1"))))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + draw(st.sampled_from(("", newline))), delimiter


def _outcome(parse, path, delimiter):
    try:
        abscissa, intensity = parse(path, delimiter)
    except cli.IngestError as exc:
        return str(exc)
    return abscissa.tobytes(), intensity.tobytes()


@settings(max_examples=400, deadline=None)
@given(spectrum_files())
@example(("intensity\n0\t1\n1\t2\n2\t3\n3\t4\n4\t5\n", None))
@example(("0 1\n1 2\t9\n2 3\n3 4\n4 5\n", None))
@example(("0\t1\n1\t2\t3,4\n2\t3\n3\t4\n4\t5\n", None))
@example(("\r\nx,y\r\n0,1\r\n1,2\r\n\r\n2,3\r\n3,4\r\n4,5", None))
@example(("0\t9007199254740993\n1\t1e23\n2\t2.2250738585072011e-308\n"
          "3\t4.9406564584124654e-324\n4\t1.7976931348623157e308\n", None))
@example(("x,y\n0,-0\n0.5,0.0010000100001000009\n1,-1e23\n1.5,+.5e-3\n2,9007199254740993", None))
def test_fast_path_matches_line_parser(case):
    # Wherever the C reader accepts a file, the line parser reads the
    # same floats; ingest returns what the line parser returns, or raises
    # its message.
    text, delimiter = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.txt"
        path.write_text(text, newline="")
        expected = _outcome(cli._ingest_lines, path, delimiter)
        fast = cli._ingest_fast(path, delimiter)
        if fast is not None:
            assert (fast[0].tobytes(), fast[1].tobytes()) == expected
        assert _outcome(cli.ingest, path, delimiter) == expected


# Decimal text the reader must read as float() does: floats as repr,
# %.17g, %.12g and %.3e write them, and fields drawn from its grammar, with
# signs, leading zeros, bare points, 1 to 3 exponent digits and up to 24
# digits before the exponent.
FLOAT_TEXTS = st.builds(lambda fmt, x: fmt % x if isinstance(fmt, str) else fmt(x),
                        st.sampled_from((repr, "%.17g", "%.12g", "%.3e")),
                        st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def grammar_fields(draw):
    digits = draw(st.sampled_from(("", "0", "0000"))) + draw(st.text("0123456789", min_size=1))
    digits = digits[:24]
    point = draw(st.one_of(st.none(), st.integers(0, len(digits))))
    mantissa = digits if point is None else f"{digits[:point]}.{digits[point:]}"
    exponent = draw(st.one_of(
        st.just(""),
        st.tuples(st.sampled_from("eE"), st.sampled_from(("", "+", "-")),
                  st.text("0123456789", min_size=1, max_size=3)).map("".join)))
    return draw(st.sampled_from(("", "+", "-"))) + mantissa + exponent


# Fields and line layouts outside the grammar: each makes the reader
# decline the whole file.
OUTSIDE_GRAMMAR = ("nan", "inf", "1_0", " 1", "1 ", "1e", "1e+", "1e1234", "1..2", "+-1", "e5",
                   ".", "-", "", "1.5e-3.2", "1-", "0x10", "1" * 25, "0." + "1" * 24, "\uff11",
                   "1\t2", "1,2", "1\r")


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(*[st.one_of(FLOAT_TEXTS, grammar_fields())] * 2),
                     min_size=1, max_size=30),
       delimiter=st.sampled_from((None, None, ";")), final_newline=st.booleans(),
       bad=st.one_of(st.none(), st.tuples(st.sampled_from(OUTSIDE_GRAMMAR), st.integers(0, 59))),
       chunk=st.sampled_from((64, cli.DECIMAL_CHUNK)))
@example(rows=[(v, v) for v in ("9007199254740993", "1e23", "2.2250738585072011e-308",
                                "4.9406564584124654e-324", "1.7976931348623157e308", "-0",
                                "0.0010000100001000009")],
         delimiter=None, final_newline=True, bad=None, chunk=cli.DECIMAL_CHUNK)
def test_decimal_reader_matches_float(rows, delimiter, final_newline, bad, chunk):
    # The decimal reader returns the float() of every field, bit for bit,
    # in chunks of any size, and None for a file with one field outside
    # its grammar. A tab or comma file ingests without a delimiter.
    sep = delimiter or ("\t", ",")[len(rows) % 2]
    fields = [field for row in rows for field in row]
    if bad is not None:  # past the first row, which a bad field could make a header
        fields = ["0", "0", *fields]
        fields[2 + bad[1] % (len(fields) - 2)] = bad[0]
    text = "\n".join(f"{a}{sep}{b}" for a, b in zip(fields[::2], fields[1::2]))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "DECIMAL_CHUNK", chunk)
        path = Path(tmp) / "s.txt"
        path.write_bytes((text + "\n" * final_newline).encode())
        got = cli._read_decimal(path, delimiter)
    if bad is not None:
        assert got is None
        return
    assert got is not None
    for column, texts in zip(got, (fields[::2], fields[1::2])):
        assert column.tobytes() == np.array([float(t) for t in texts]).tobytes()


def assert_text(path, expected):
    """The file at ``path`` holds the text ``expected``, byte for byte; a
    failure names the first wrong lines, where a diff of two long texts
    would run for minutes."""
    lines, want = path.read_bytes().decode().split("\n"), expected.split("\n")
    wrong = list(itertools.islice(((i, got, line) for i, (got, line) in enumerate(zip(lines, want))
                                   if got != line), 3))
    assert not wrong and len(lines) == len(want), (path.name, len(lines), len(want), wrong)


@pytest.mark.parametrize("rows", [3, 2 * cli.WRITE_BLOCK_ROWS + 7])
def test_writer_matches_per_row_format(tmp_path, rows):
    edge = [
        -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e300, -1e300,
        1.7976931348623157e308, 0.1234567890125, 0.12345678901250001, 1.0000000000005,
        9.9999999999995, 999999999999.5, 123456789012.5, 1e16,
    ]
    rng = np.random.default_rng(18)
    col2 = np.resize(np.array(edge), rows)
    col1 = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
    col1 = np.where(rng.random(rows) < 0.3, col2[::-1], col1)
    path = tmp_path / "out.txt"
    cli._write_columns(path, (col1, col2))
    expected = "".join(f"{cli.FLOAT_FMT % a}\t{cli.FLOAT_FMT % b}\n" for a, b in zip(col1, col2))
    assert_text(path, expected)
    # Integer columns print as integers; a header line comes first.
    index = np.arange(rows)
    cli._write_columns(path, (index, col2, col1), ("index", "b", "a"))
    expected = "".join(f"{i}\t{cli.FLOAT_FMT % b}\t{cli.FLOAT_FMT % a}\n"
                       for i, a, b in zip(index, col1, col2))
    assert_text(path, "index\tb\ta\n" + expected)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 12, 13])
def test_signal_files_match_per_row_format(tmp_path, monkeypatch, n):
    # smoothed.txt and second_derivative.txt written in lockstep, in blocks
    # of 4 rows: the first and the last point of the second difference's
    # abscissa fall in blocks of their own or share one.
    monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 4)
    rng = np.random.default_rng(n)
    abscissa = np.cumsum(rng.random(n)) * 10.0 ** rng.integers(-5, 5)
    smoothed = rng.standard_normal(n)
    d2 = np.r_[np.inf, -np.inf, rng.standard_normal(n)][:n - 2]
    cli._write_signal(tmp_path, abscissa, smoothed, d2)
    fmt = cli.FLOAT_FMT
    assert_text(tmp_path / "smoothed.txt",
                "".join(f"{fmt % a}\t{fmt % x}\n" for a, x in zip(abscissa, smoothed)))
    assert_text(tmp_path / "second_derivative.txt",
                "".join(f"{fmt % a}\t{fmt % x}\n" for a, x in zip(abscissa[1:-1], d2)))


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _decimal(mantissa, exponent, ulps, negative):
    """The float nearest the decimal mantissa·10**exponent, moved by ulps
    units in the last place, negated where asked."""
    x = float(f"{mantissa}e{exponent}")
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return -x if negative else x


# Values where %.12g is hard to match: any float64 bit pattern, 12-digit
# decimal ties ("d5": 13 digits ending in 5), 12-digit decimals, the carry
# 9.9999999999995 to 10, powers of ten, all a few units in the last place
# either side, and the notation edges, zeros, subnormals, infinities and NaN.
SIGNAL_VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(_from_bits),
    st.builds(_decimal,
              st.one_of(st.integers(10**11, 10**12 - 1).map(lambda d: f"{d}5"),
                        st.integers(10**11, 10**12 - 1).map(str),
                        st.sampled_from(["99999999999995", "99999999999994999", "1", "5"])),
              st.one_of(st.integers(-30, 10), st.integers(-340, 300)),
              st.integers(-3, 3), st.booleans()),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf,
                     math.nan, 1e-5, 9.99999999999e-6, 9.999999999995e-6, 1e-4, 1e11, 1e12,
                     999999999999.5, 999999999999.4, 100000000000.5, 0.5, 1e-11, 1e-12, 1e22,
                     1e23]),
)


@pytest.mark.parametrize("block_rows", [cli.WRITE_BLOCK_ROWS, 3])
@settings(max_examples=60, deadline=None)
@given(values=st.lists(SIGNAL_VALUES, min_size=1, max_size=40),
       size=st.floats(0.0, 2.2), shift=st.integers(0, 39))
# Decimal ties whose float64 product with a power of ten rounds to the tie.
@example(values=[9.999999999995e-06, 5606394622.305, -5.606394622305e-08, 95378.45024235],
         size=2.0, shift=1)
def test_signal_writer_matches_per_row_format_on_any_float(block_rows, values, size, shift):
    # The files are the rows FLOAT_FMT writes, however a value falls in its
    # block, and whether or not the kernel formats it. ``size`` is n in
    # blocks, so the default size writes up to three blocks.
    n = 5 + int(size * block_rows)
    pool = np.resize(np.array(values), 3 * n + shift)
    abscissa, smoothed, d2 = pool[:n], pool[n + shift : 2 * n + shift], pool[2 * n : 3 * n - 2]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "WRITE_BLOCK_ROWS", block_rows)
        out = Path(tmp)
        cli._write_signal(out, abscissa, smoothed, d2)
        for name, rows in (("smoothed.txt", zip(abscissa, smoothed)),
                           ("second_derivative.txt", zip(abscissa[1:-1], d2))):
            fmt = cli.FLOAT_FMT
            assert_text(out / name, "".join(f"{fmt % a}\t{fmt % x}\n" for a, x in rows))


def test_text_outputs_end_lines_in_newline_on_any_platform(tmp_path, noisy_file, monkeypatch):
    # Text mode writes "\n" as os.linesep, "\r\n" on Windows. Files opened
    # by the pure Python io, which reads os.linesep as it opens a file,
    # stand in for such a platform: every output ends its lines in "\n" but
    # the CSV tables, which end them in "\r\n" as csv.writer does.
    monkeypatch.setattr(Path, "open", lambda path, *args, **kwargs: _pyio.open(path, *args, **kwargs))
    monkeypatch.setattr(os, "linesep", "\r\n")
    path, _ = noisy_file
    smoothed, bench = tmp_path / "smoothed", tmp_path / "bench"
    assert cli.main(["smooth", str(path), "--auto", "--peaks", "3", "--out", str(smoothed)]) == 0
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"resolutions": [50], "methods": {"ps": [1]}}))
    assert cli.main(["benchmark", str(scenario), "--out", str(bench)]) == 0
    monkeypatch.undo()
    for name in ("smoothed.txt", "second_derivative.txt", "peaks.txt", "cv_curve.txt",
                 "summary.json"):
        assert b"\r" not in (smoothed / name).read_bytes(), name
    assert b"\r" not in (bench / "summary.json").read_bytes()
    for name in ("cells.csv", "aggregates.csv", "best.csv"):
        text = (bench / name).read_bytes()
        assert text.count(b"\r\n") == text.count(b"\n") > 0, name


def test_signal_writer_memory_is_one_block(tmp_path):
    # The writer holds a block of rows at a time: at n = 1e5 its traced peak
    # is about 1.7 MB, where formatting the whole signal at once would take
    # over 20 MB.
    import tracemalloc

    n = 100_000
    rng = np.random.default_rng(33)
    abscissa = np.linspace(0.0, 100.0, n)
    smoothed = rng.standard_normal(n)
    d2 = np.diff(smoothed, 2)
    tracemalloc.start()
    try:
        cli._write_signal(tmp_path, abscissa, smoothed, d2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


def test_ingest_memory_is_one_chunk(tmp_path, monkeypatch):
    # The decimal reader holds one chunk's temporaries at a time, about 20
    # bytes a byte of text: at n = 1e5 (3.8 MB of text) the traced peak of
    # ingest is about 4.6 MB, where np.loadtxt's is 5.6 MB.
    import tracemalloc

    n = 100_000
    path = tmp_path / "big.txt"
    rng = np.random.default_rng(37)
    np.savetxt(path, np.column_stack([np.linspace(0.0, 100.0, n), rng.standard_normal(n)]),
               fmt="%.17g", delimiter="\t")

    def loadtxt(*args):
        raise AssertionError("np.loadtxt ran")

    monkeypatch.setattr(cli, "_loadtxt", loadtxt)
    tracemalloc.start()
    try:
        abscissa, _ = cli.ingest(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abscissa.shape == (n,)
    assert peak < 6e6, peak


class TestSmoothCommand:
    def test_fixed_parameter_outputs(self, tmp_path, noisy_file):
        path, (_, y) = noisy_file
        out = tmp_path / "out"
        rc = cli.main(["smooth", str(path), "--method", "ps", "--param", "5", "--out", str(out)])
        assert rc == 0
        smoothed = cli.ingest(out / "smoothed.txt")[1]
        from lsaps.smoothers import smooth_ps

        expected = smooth_ps(y, 5.0)
        assert np.allclose(smoothed, expected, rtol=1e-11, atol=1e-11)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "ps"
        assert summary["parameter"] == 5.0
        d2 = cli.ingest(out / "second_derivative.txt")[1]
        assert d2.shape == (y.shape[0] - 2,)

    def test_round_trip_idempotent(self, tmp_path, noisy_file):
        # Re-smoothing an emitted file with lam = 0 reproduces it at 12
        # significant digits.
        path, _ = noisy_file
        out1 = tmp_path / "o1"
        cli.main(["smooth", str(path), "--method", "ps", "--param", "3", "--out", str(out1)])
        out2 = tmp_path / "o2"
        cli.main(["smooth", str(out1 / "smoothed.txt"), "--method", "ps", "--param", "0", "--out", str(out2)])
        assert (out1 / "smoothed.txt").read_text() == (out2 / "smoothed.txt").read_text()

    def test_auto_selection(self, tmp_path, noisy_file):
        path, _ = noisy_file
        out = tmp_path / "out"
        rc = cli.main(["smooth", str(path), "--method", "lsa-ps", "--auto",
                       "--grid", "0.5,5,50", "--peaks", "15", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["selected_parameter"] in (0.5, 5.0, 50.0)
        assert summary["cv_curve"]["grid"] == [0.5, 5.0, 50.0]
        assert len(summary["cv_curve"]["losses"]) == 3
        assert summary["peaks_requested"] == 15
        curve_lines = (out / "cv_curve.txt").read_text().strip().splitlines()
        assert curve_lines[0] == "parameter\tloss"
        assert len(curve_lines) == 4
        peak_lines = (out / "peaks.txt").read_text().strip().splitlines()
        assert peak_lines[0] == "index\tabscissa\tsharpness\tintensity"
        assert len(peak_lines) == summary["peaks_found"] + 1

    def test_sg_and_gaussian(self, tmp_path, noisy_file):
        path, _ = noisy_file
        for extra in (["--method", "sg", "--window", "7", "--order", "2"],
                      ["--method", "gaussian", "--window", "5"]):
            out = tmp_path / f"out-{extra[1]}"
            assert cli.main(["smooth", str(path), *extra, "--out", str(out)]) == 0
            assert (out / "smoothed.txt").exists()

    def test_param_required(self, noisy_file, capsys):
        path, _ = noisy_file
        with pytest.raises(SystemExit):
            cli.main(["smooth", str(path), "--method", "ps"])

    def test_error_prints_json_line(self, tmp_path, capsys):
        rc = cli.main(["smooth", str(tmp_path / "missing.txt"), "--method", "ps", "--param", "1"])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        record = json.loads(err)
        assert record["error"] == "IngestError"
        assert "missing.txt" in record["message"]

    def test_out_naming_a_file_prints_json_line(self, noisy_file, capsys):
        path, _ = noisy_file
        before = path.read_bytes()
        rc = cli.main(["smooth", str(path), "--param", "1", "--out", str(path)])
        assert rc == 1
        [line] = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "OutputError"
        assert record["message"].startswith(f"cannot write output to {path}: ")
        assert path.read_bytes() == before

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--param", "-1"], "lambda_bar must be >= 0"),
            (["--param", "nan"], "lambda_bar must be finite"),
            (["--method", "ps", "--param", "-1"], "lam must be >= 0"),
            (["--auto", "--grid", "nan,1"], "candidate must be finite"),
            (["--auto", "--grid", "1,,2"], "--grid must be comma-separated numbers"),
            (["--param", "1", "--peaks", "-1"], "k must be >= 1"),
            (["--param", "1", "--peaks", "0"], "k must be >= 1"),
            (["--param", "1", "--delimiter", ""], "delimiter must not be empty"),
            (["--auto", "--grid", ""], "--grid must be comma-separated numbers"),
        ],
    )
    def test_bad_parameter_prints_json_line(self, tmp_path, noisy_file, capsys, extra, message):
        path, _ = noisy_file
        rc = cli.main(["smooth", str(path), *extra, "--out", str(tmp_path / "x")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "InvalidConfigError"
        assert message in record["message"]
        # Validation runs before anything is written.
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("kind", ["directory", "latin-1 header"])
    def test_unreadable_input_prints_json_line(self, tmp_path, capsys, kind):
        path = tmp_path / "in"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes("intensit\xe9\tx\n".encode("latin-1") + b"0\t1\n" * 5)
        rc = cli.main(["smooth", str(path), "--param", "1", "--out", str(tmp_path / "x")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "IngestError"
        assert record["message"].startswith(f"cannot read {path}: ")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("method", ["sg", "gaussian"])
    def test_param_rejected_for_window_methods(self, tmp_path, noisy_file, capsys, method):
        # --param would be ignored: these methods smooth with --window.
        path, _ = noisy_file
        with pytest.raises(SystemExit) as exc:
            cli.main(["smooth", str(path), "--method", method, "--param", "3",
                      "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "--param applies to ps / lsa-ps only" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("extra", [
        ["--param", "1", "--grid", "1,2"],
        ["--param", "1", "--grid", ""],
        ["--method", "sg", "--grid", "1,2"],
    ])
    def test_grid_rejected_without_auto(self, tmp_path, noisy_file, capsys, extra):
        # --grid would be ignored: only --auto has a candidate grid.
        path, _ = noisy_file
        with pytest.raises(SystemExit) as exc:
            cli.main(["smooth", str(path), *extra, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "--grid applies to --auto only" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("extra", [["--param", "1"], ["--auto"]])
    def test_summary_is_strict_json_on_overflow_scale_data(self, tmp_path, noisy_file, extra):
        # The effective lambda is in units of y squared and overflows to
        # inf; strict JSON has no Infinity, so it is written as null.
        _, (t, y) = noisy_file
        path = tmp_path / "big.txt"
        write_spectrum(path, t, y * 1e200)
        out = tmp_path / "out"
        assert cli.main(["smooth", str(path), *extra, "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["effective_lambda"] is None

    def test_near_max_scale_peaks_and_second_difference(self, tmp_path):
        # Neighbours of opposite sign near 1.7e308: the second difference
        # exceeds float64. It is written as inf, never nan, the peaks are
        # ranked as on the same file at unit size, and no warning escapes.
        t = np.arange(200.0)
        y = np.sin(t / 10.0) * (-1.0) ** t
        outs = {}
        for name, scale in (("big", 1.7e308), ("unit", 1.7e308 * 2.0**-1024)):
            path = tmp_path / f"{name}.txt"
            write_spectrum(path, t, y * scale)
            outs[name] = tmp_path / f"out-{name}"
            rc = cli.main(["smooth", str(path), "--method", "ps", "--param", "0.001",
                           "--peaks", "5", "--out", str(outs[name])])
            assert rc == 0
        d2 = np.loadtxt(outs["big"] / "second_derivative.txt")[:, 1]
        assert not np.isnan(d2).any() and np.isinf(d2).any()
        rows = {name: [line.split("\t") for line in (out / "peaks.txt").read_text().splitlines()[1:]]
                for name, out in outs.items()}
        assert [r[0] for r in rows["big"]] == [r[0] for r in rows["unit"]]
        assert [r[2] for r in rows["big"]] == ["inf"] * 5

    @pytest.mark.parametrize(
        "extra",
        [
            ["--method", "ps", "--param", "1", "--peaks", "3"],
            ["--method", "ps", "--auto"],
            ["--method", "sg", "--window", "21", "--order", "6"],
        ],
        ids=["ps", "ps-auto", "sg"],
    )
    def test_overshoot_beyond_float64_prints_json_line(self, tmp_path, capsys, extra):
        # A square wave at +-max float64: the smoothed signal overshoots
        # the edges beyond float64. It used to be written as inf rows, with
        # nan in the second difference and warnings on stderr.
        t = np.arange(200.0)
        path = tmp_path / "square.txt"
        write_spectrum(path, t, np.where(t // 40 % 2 == 0, 1.0, -1.0) * np.finfo(float).max)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["smooth", str(path), *extra, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ResultOverflowError"
        assert not out.exists()

    def test_failed_cv_candidate_loss_is_inf(self, tmp_path, noisy_file):
        # PS at lambda 0 interpolates: every leverage is 1, so the
        # candidate fails and its loss is inf, not a "noise-free" SNR.
        path, _ = noisy_file
        out = tmp_path / "out"
        rc = cli.main(["smooth", str(path), "--method", "ps", "--auto",
                       "--grid", "0,1", "--out", str(out)])
        assert rc == 0
        lines = (out / "cv_curve.txt").read_text().splitlines()
        assert lines[1] == "0\tinf"
        assert float(lines[1].split("\t")[1]) == float("inf")
        assert np.isfinite(float(lines[2].split("\t")[1]))

    def test_auto_rejected_for_sg(self, tmp_path, noisy_file, capsys):
        path, _ = noisy_file
        rc = cli.main(["smooth", str(path), "--method", "sg", "--auto", "--out", str(tmp_path / "x")])
        assert rc == 1
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {
            "error": "InvalidConfigError",
            "message": "auto-selection supports only ps and lsa-ps, got 'sg'",
        }
        assert not (tmp_path / "x").exists()


# Scenarios that parse but whose signal overflows, or whose noise
# underflows, once the sweep builds it; each maps to its error message.
OVERFLOWING_SCENARIOS = {
    json.dumps({"noise_sigmas": [1e308], "resolutions": [50], "methods": {"ps": [1]}}):
        "noise sigma 1e+308: the sum of squares",
    json.dumps({"noise_sigmas": [1e160], "resolutions": [50], "methods": {"ps": [1]}}):
        "noise sigma 1e+160: the sum of squares",
    json.dumps({"noise_sigmas": [1e-170], "resolutions": [50], "methods": {"ps": [1]}}):
        "noise sigma 1e-170: the sum of squares",
    json.dumps({"resolutions": [50], "peaks": [{"center": 50, "height": 1e308, "halfwidth": 1}],
                "background": {"offset": 1e308}, "methods": {"ps": [1]}}):
        "the clean signal overflows",
}


# Scenario files refused before the sweep, each mapped to its error class
# and the start of its message after "scenario file: ": an LsapsError for a
# file that cannot be read or is not JSON, an InvalidConfigError for JSON
# not of the scenario's shape or a sweep value of the wrong type, range or
# count, and an InvalidInputError for a peak, background or x_range value.
MALFORMED_SCENARIOS = {
    json.dumps({"methods": {"sg": [5]}}):
        ("InvalidConfigError", "methods.sg[0] must be a [window, poly_order] pair, got 5"),
    json.dumps({"seeds": ["x"]}): ("InvalidConfigError", "seeds[0] must be an integer, got x"),
    json.dumps({"background": {"foo": 1}}): ("InvalidConfigError", "unknown 'background' key 'foo'"),
    '{"seeds": [0': ("LsapsError", "Expecting"),
    "[1]": ("InvalidConfigError", "top level must be a JSON object"),
    None: ("LsapsError", "[Errno 2]"),
    json.dumps({"methods": [1]}): ("InvalidConfigError", "'methods' must be an object"),
    json.dumps({"methods": {"sg": [[5]]}}):
        ("InvalidConfigError", "methods.sg[0] must be a [window, poly_order] pair, got [5]"),
    json.dumps({"methods": {"ps": ["a"]}}):
        ("InvalidConfigError", "methods.ps[0] must be a real number, got 'a'"),
    json.dumps({"methods": {"gaussian": [2.5]}}):
        ("InvalidConfigError", "methods.gaussian[0] must be an integer, got 2.5"),
    # Bools and non-integers, negative seeds, non-finite and zero-width values.
    json.dumps({"seeds": [-1], "noise_sigmas": [0.1], "methods": {"ps": [1.0]}}):
        ("InvalidConfigError", "seeds[0] must be >= 0, got -1"),
    json.dumps({"noise_sigmas": [math.inf], "methods": {"ps": [1.0]}}):
        ("InvalidConfigError", "noise_sigmas[0] must be finite, got inf"),
    json.dumps({"background": {"slope": "x"}, "methods": {"ps": [1.0]}}):
        ("InvalidConfigError", "slope must be a real number, got 'x'"),
    json.dumps({"background": {"hump_width": 0}, "methods": {"ps": [1.0]}}):
        ("InvalidInputError", "background hump_width must be > 0"),
    json.dumps({"resolutions": [20.7], "methods": {"ps": [1.0]}}):
        ("InvalidConfigError", "resolutions[0] must be an integer, got 20.7"),
    json.dumps({"seeds": [1.5, True], "resolutions": [20], "methods": {"ps": [1.0]}}):
        ("InvalidConfigError", "seeds[0] must be an integer, got 1.5"),
    json.dumps({"resolutions": []}): ("InvalidConfigError", "'resolutions' must not be empty"),
    json.dumps({"peaks": [{"center": 5, "height": math.inf, "halfwidth": 1}],
                "x_range": [0, 10], "methods": {"ps": [1.0]}}):
        ("InvalidInputError", "peak center, height and halfwidth must be finite numbers"),
    json.dumps({"peaks": [{"center": 5, "height": 1, "halfwidth": 1}],
                "x_range": [0, math.inf], "methods": {"ps": [1.0]}}):
        ("InvalidInputError", "x_range must be two increasing finite numbers"),
    # Shapes that raised Python's own messages, and empty axes, which ran
    # and wrote tables of headers only.
    json.dumps({"peaks": [5]}): ("InvalidConfigError", "peaks[0] must be an object"),
    json.dumps({"background": [1, 2]}): ("InvalidConfigError", "'background' must be an object"),
    json.dumps({"noise_sigmas": []}): ("InvalidConfigError", "'noise_sigmas' must not be empty"),
    json.dumps({"methods": {}}): ("InvalidConfigError", "'methods' must not be empty"),
    json.dumps({"methods": {"ps": []}}): ("InvalidConfigError", "'methods.ps' must not be empty"),
}


class TestBenchmarkCommand:
    @pytest.fixture()
    def scenario_file(self, tmp_path):
        data = {
            "peaks": [
                {"center": 3.0, "height": 2.0, "halfwidth": 0.3},
                {"center": 7.0, "height": 1.0, "halfwidth": 0.2},
            ],
            "x_range": [0.0, 10.0],
            "resolutions": [150],
            "noise_sigmas": [0.1],
            "seeds": [0, 1],
            "methods": {"ps": [1.0, 10.0], "gaussian": [1]},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return path

    def test_out_naming_a_file_prints_json_line(self, scenario_file, capsys):
        before = scenario_file.read_bytes()
        rc = cli.main(["benchmark", str(scenario_file), "--out", str(scenario_file)])
        assert rc == 1
        [line] = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "OutputError"
        assert record["message"].startswith(f"cannot write output to {scenario_file}: ")
        assert scenario_file.read_bytes() == before

    def test_outputs(self, tmp_path, scenario_file):
        out = tmp_path / "bench"
        rc = cli.main(["benchmark", str(scenario_file), "--out", str(out)])
        assert rc == 0
        cells = (out / "cells.csv").read_text().strip().splitlines()
        assert cells[0].startswith("resolution,sigma,method,parameter,seed")
        assert len(cells) == 1 + 2 * 3  # 2 seeds x (2 ps + 1 gaussian)
        aggregates = (out / "aggregates.csv").read_text().strip().splitlines()
        assert len(aggregates) == 1 + 3
        best = (out / "best.csv").read_text().strip().splitlines()
        assert len(best) == 1 + 2 * 2  # snr + rrse per method
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cells"] == 6
        assert summary["methods"] == {"ps": 2, "gaussian": 1}

    def test_failed_cell_is_recorded_not_fatal(self, tmp_path):
        # The window is wider than the signal: that cell fails, is recorded,
        # and the run still writes every output.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(
            {"resolutions": [10], "methods": {"sg": [[21, 2], [5, 2]], "ps": [1.0]}}
        ))
        out = tmp_path / "bench"
        assert cli.main(["benchmark", str(path), "--out", str(out)]) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "aggregates.csv", "best.csv", "cells.csv", "summary.json"
        ]
        with (out / "cells.csv").open(newline="") as fh:
            errors = [row["error"] for row in csv.DictReader(fh)]
        assert errors == ["InvalidSizeError: signal length 10 < window 21", "", ""]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["methods"] == {"sg": 2, "ps": 1}

    def test_cell_errors_match_per_cell_smooth(self, tmp_path):
        # Every failing kind of cell, each grid evaluated at once: the
        # error of every cell is what smooth raises for it alone. At sigma
        # 0 the signal is (1, 0, 0, ...): its median curvature weight is
        # zero, which fails every LSA-PS cell but the negative one.
        data = {
            "peaks": [{"center": 0, "height": 1, "halfwidth": 1e-200}],
            "x_range": [0, 100],
            "resolutions": [50],
            "noise_sigmas": [0, 0.1],
            "seeds": [3],
            "methods": {
                "ps": [1, -1],
                "lsa-ps": [1, -1, 0.5],
                "sg": [[5, 2], [61, 2], [4, 2], [5, 3], [5, 5], [3, 1], [5, 0], [1, 0],
                       [5, 4], [7, 3], [-1, 2], [5, 1]],
                "gaussian": [0, 1, 3],
            },
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "bench"
        assert cli.main(["benchmark", str(path), "--out", str(out)]) == 0
        with (out / "cells.csv").open(newline="") as fh:
            errors = [row["error"] for row in csv.DictReader(fh)]

        scenario, _, sigmas, grids, seeds = cli.load_scenario_file(path)
        clean = generate_clean(scenario)
        expected = []
        for sigma in sigmas:
            noisy, _ = add_noise(clean, sigma, seeds[0])
            for method, grid in grids.items():
                for parameter in grid:
                    try:
                        smooth(noisy, method, parameter)
                        expected.append("")
                    except Exception as exc:
                        expected.append(f"{type(exc).__name__}: {exc}")
        assert errors == expected
        for message in (
            "InvalidConfigError: lambda_bar must be >= 0, got -1",
            "InvalidConfigError: lam must be >= 0, got -1",
            "DegenerateSignalError: median curvature weight is zero",
            "InvalidSizeError: signal length 50 < window 61",
            "InvalidConfigError: window must be odd and >= 1, got 4",
            "InvalidConfigError: poly_order must satisfy 1 <= order < window, got order=5",
            "InvalidConfigError: window must be >= 1, got 0",
        ):
            assert any(e.startswith(message) for e in errors), message
        # The negative lambda_bar reports its own error before the shared one.
        assert errors[2:5] == [errors[2], "InvalidConfigError: lambda_bar must be >= 0, got -1", errors[2]]
        assert errors[2].startswith("DegenerateSignalError")

    @staticmethod
    def csv_writer_table(path, columns):
        # The oracle: the csv module's writer, each value formatted as the
        # table writer formats it.
        names = list(columns)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for values in zip(*columns.values()):
                writer.writerow([cli._param_str(v) if name == "parameter" else cli._fmt(v)
                                 for name, v in zip(names, values)])
        return path.read_bytes()

    @pytest.mark.parametrize("block_rows", [cli.TABLE_BLOCK_ROWS, 3])
    def test_tables_match_csv_writer(self, tmp_path, monkeypatch, block_rows):
        # Error cells whose messages hold a comma, "5/2" parameters, sigma 0
        # (noise-free SNRs) and a window that fails at n = 40 only; with
        # 3-row blocks the special values fall in some blocks and not others.
        monkeypatch.setattr(cli, "TABLE_BLOCK_ROWS", block_rows)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "peaks": [{"center": 3.0, "height": 2.0, "halfwidth": 0.3},
                      {"center": 7.0, "height": 1.0, "halfwidth": 0.2}],
            "x_range": [0.0, 10.0], "resolutions": [40, 60], "noise_sigmas": [0, 0.1],
            "seeds": [0, 1],
            "methods": {"ps": [1, 2.5, -1], "sg": [[5, 2], [5, 5], [5, 4], [41, 2]],
                        "gaussian": [3, 1]},
        }))
        scenario, resolutions, sigmas, grids, seeds = cli.load_scenario_file(path)
        report = sim.run_benchmark(scenario, resolutions, sigmas, grids, seeds)
        for name, columns in report._asdict().items():
            cli._write_table(tmp_path / f"{name}.csv", columns)
            expected = self.csv_writer_table(tmp_path / f"{name}-oracle.csv", columns)
            assert (tmp_path / f"{name}.csv").read_bytes() == expected, name
        text = (tmp_path / "cells.csv").read_text()
        assert ',"InvalidConfigError: poly_order must satisfy 1 <= order < window, got order=5"\n' in text
        assert ",sg,5/2," in text and ",gaussian,1,0,noise-free,noise-free," in text
        # The aggregates in order of first appearance among the good cells.
        keys = zip(*(report.cells[name] for name in ("resolution", "sigma", "method", "parameter")))
        first = dict.fromkeys(key for key, error in zip(keys, report.cells["error"]) if error is None)
        aggregates = report.aggregates
        assert list(zip(aggregates["resolution"], aggregates["sigma"], aggregates["method"],
                        aggregates["parameter"])) == list(first)
        assert list(first)[:6] == [(40, 0.0, "ps", 1), (40, 0.0, "ps", 2.5), (40, 0.0, "sg", (5, 2)),
                                   (40, 0.0, "sg", (5, 4)), (40, 0.0, "gaussian", 3),
                                   (40, 0.0, "gaussian", 1)]
        assert (60, 0.0, "sg", (41, 2)) in first and (40, 0.0, "sg", (41, 2)) not in first

    def test_writer_quotes_as_csv_writer(self, tmp_path):
        # Quotes, line breaks and commas in text, and every special float.
        columns = {
            "resolution": [1, 2, 3, 4], "sigma": [0.1, 1e-300, 2.0, 0.5],
            "method": ["a,b", 'q"t', "x\ny", "c\rd"],
            "parameter": [(1, 0), (5, 2), 2.5, 7], "seed": [0, 1, 2, 3],
            "input_snr_db": [math.inf, 1.0, 2.0, 3.0],
            "output_snr_db": [None, 1.5, -math.inf, math.nan], "rrse": [0.25, None, 1e300, 0.0],
            "value": [1e-6, 2e-6, 3e-6, 4e-6], "error": ['say "hi", twice', None, "", "plain"],
        }
        cli._write_table(tmp_path / "t.csv", columns)
        expected = self.csv_writer_table(tmp_path / "oracle.csv", columns)
        assert (tmp_path / "t.csv").read_bytes() == expected
        with (tmp_path / "t.csv").open(newline="") as fh:
            assert [row["method"] for row in csv.DictReader(fh)] == columns["method"]

    def test_block_formats_follow_the_values(self, tmp_path, monkeypatch):
        # Two-row blocks: a parameter block of ints only, then of floats
        # only, then of pairs only; an output SNR block of None only, then
        # of finite floats, then of a noise-free and a -inf SNR.
        monkeypatch.setattr(cli, "TABLE_BLOCK_ROWS", 2)
        columns = {
            "parameter": [1, 20, 0.5, 2.0, (5, 2), (1, 0)],
            "output_snr_db": [None, None, 1.25, 3.0, math.inf, -math.inf],
            "seed": [0, 1, 2, 3, 4, 5],
        }
        cli._write_table(tmp_path / "t.csv", columns)
        expected = self.csv_writer_table(tmp_path / "oracle.csv", columns)
        assert (tmp_path / "t.csv").read_bytes() == expected
        assert expected == (b"parameter,output_snr_db,seed\r\n1,,0\r\n20,,1\r\n0.5,1.25,2\r\n"
                            b"2,3,3\r\n5/2,noise-free,4\r\n1/0,-inf,5\r\n")

    def test_infinite_lambda_bar_is_named(self, tmp_path):
        # lambda_bar's own check comes before its scaling to lam, which
        # named lam for it.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"resolutions": [50], "seeds": [0],
                                    "methods": {"lsa-ps": [math.inf]}}))
        assert cli.main(["benchmark", str(path), "--out", str(tmp_path / "bench")]) == 0
        with (tmp_path / "bench" / "cells.csv").open(newline="") as fh:
            [row] = csv.DictReader(fh)
        assert row["error"] == "InvalidConfigError: lambda_bar must be finite, got inf"

    def test_infinite_parameter_is_labelled_inf(self, tmp_path):
        # A lam of inf fails its cell, whose parameter is written "inf",
        # not the "noise-free" label of an SNR.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"resolutions": [50], "seeds": [0],
                                    "methods": {"ps": [1, math.inf]}}))
        assert cli.main(["benchmark", str(path), "--out", str(tmp_path / "bench")]) == 0
        rows = (tmp_path / "bench" / "cells.csv").read_text().splitlines()
        assert rows[2] == '50,0,ps,inf,0,noise-free,,,"InvalidConfigError: lam must be finite, got inf"'

    @pytest.mark.parametrize("methods", [{"gaussian": [0], "lsa-ps": [-1]},
                                         {"ps": [-1], "sg": [[5, 9]]}])
    def test_sweep_without_good_cells_writes_full_headers(self, tmp_path, methods):
        # Grids whose every cell fails: the tables hold their headers and
        # no aggregates or best rows.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"resolutions": [50], "methods": methods}))
        out = tmp_path / "bench"
        assert cli.main(["benchmark", str(path), "--out", str(out)]) == 0
        cells = sum(map(len, methods.values()))
        headers = {
            "cells.csv": "resolution,sigma,method,parameter,seed,input_snr_db,output_snr_db,"
                         "rrse,error",
            "aggregates.csv": "resolution,sigma,method,parameter,seeds,input_snr_mean,"
                              "output_snr_mean,output_snr_std,rrse_mean,rrse_std",
            "best.csv": "resolution,sigma,method,criterion,parameter,value",
        }
        for name, header in headers.items():
            lines = (out / name).read_bytes().split(b"\r\n")
            assert lines[0] == header.encode() and lines[-1] == b"", name
            assert len(lines) == 2 + (cells if name == "cells.csv" else 0), name
        report = sim.run_benchmark(*cli.load_scenario_file(path))
        for name, columns in report._asdict().items():
            cli._write_table(tmp_path / f"{name}.csv", columns)
            expected = self.csv_writer_table(tmp_path / f"{name}-oracle.csv", columns)
            assert (tmp_path / f"{name}.csv").read_bytes() == expected, name

    def test_value_columns_deterministic(self, tmp_path, scenario_file):
        # Every column is a value column: a rerun writes the same bytes.
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        assert cli.main(["benchmark", str(scenario_file), "--out", str(out1)]) == 0
        assert cli.main(["benchmark", str(scenario_file), "--out", str(out2)]) == 0
        for name in ("cells.csv", "aggregates.csv", "best.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("text", [*OVERFLOWING_SCENARIOS, *MALFORMED_SCENARIOS])
    def test_malformed_scenario_prints_json_line(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        if text is not None:  # None: the file does not exist
            path.write_text(text)
        rc = cli.main(["benchmark", str(path), "--out", str(tmp_path / "x")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        if text in OVERFLOWING_SCENARIOS:
            assert record["error"] == "InvalidConfigError"
            assert OVERFLOWING_SCENARIOS[text] in record["message"]
        else:
            error, message = MALFORMED_SCENARIOS[text]
            assert record["error"] == error
            assert record["message"].startswith(f"scenario file: {message}")
        assert not (tmp_path / "x").exists()

    def test_failed_sweep_writes_nothing(self, tmp_path, capsys):
        # A flat clean signal leaves the RRSE undefined, which ends the sweep.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "peaks": [{"center": 50, "height": 1, "halfwidth": 1e300}],
            "resolutions": [20], "methods": {"ps": [1.0]},
        }))
        rc = cli.main(["benchmark", str(path), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "UndefinedMetricError"
        assert not (tmp_path / "x").exists()

    # linspace repeats values on [0, 1e-321]: the clean signal on that grid
    # is flat, and its RRSE undefined.
    SUBNORMAL = {"peaks": [{"center": 0, "height": 1, "halfwidth": 1}], "x_range": [0, 1e-321],
                 "noise_sigmas": [0.1]}

    def test_subnormal_grid_prints_json_line(self, tmp_path, capsys):
        # The first block scored against the flat clean signal ends the
        # sweep in the JSON error line, not a traceback.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**self.SUBNORMAL, "resolutions": [1000],
                                    "methods": {"ps": [1]}}))
        rc = cli.main(["benchmark", str(path), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "UndefinedMetricError",
                                   "message": "RRSE undefined: true signal is affine"}
        assert not (tmp_path / "x").exists()

    def test_unscorable_clean_signal_without_fits_writes_tables(self, tmp_path, capsys):
        # Every cell fails before it is scored, so the flat clean signal is
        # never scored: the sweep exits 0 and writes its tables.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**self.SUBNORMAL, "resolutions": [50],
                                    "methods": {"sg": [[61, 2]]}}))
        out = tmp_path / "x"
        assert cli.main(["benchmark", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        [cell] = csv.DictReader((out / "cells.csv").read_text().splitlines())
        assert cell["error"] == "InvalidSizeError: signal length 50 < window 61"
        for name in ("aggregates.csv", "best.csv"):
            assert len((out / name).read_text().splitlines()) == 1, name

    @pytest.mark.parametrize("scenario, message", [
        ({"methods": {"ps": [1, 1.0, 2]}}, "'methods.ps' repeats the value 1.0"),
        ({"resolutions": [200, 200]}, "'resolutions' repeats the value 200"),
        ({"noise_sigmas": [0.1, 0.1]}, "'noise_sigmas' repeats the value 0.1"),
        ({"seeds": [0, 0]}, "'seeds' repeats the value 0"),
        ({"methods": {"sg": [[5, 2], [5, 2]]}}, "'methods.sg' repeats the value (5, 2)"),
    ])
    def test_repeated_axis_value_prints_json_line(self, tmp_path, capsys, scenario, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"resolutions": [200], "methods": {"ps": [1.0]}, **scenario}))
        rc = cli.main(["benchmark", str(path), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "InvalidConfigError", "message": f"scenario file: {message}"}
        assert not (tmp_path / "x").exists()

    def test_scenario_with_byte_order_mark(self, tmp_path):
        text = json.dumps({"resolutions": [60], "seeds": [2], "methods": {"ps": [1.0]}})
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert cli.load_scenario_file(marked) == cli.load_scenario_file(plain)

    def test_invalid_scenario(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"methods": {"median": [3]}}))
        rc = cli.main(["benchmark", str(path), "--out", str(tmp_path / "x")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert "median" in record["message"]


def test_cli_import_skips_unneeded_modules():
    # A fresh interpreter, so modules imported by other tests do not count.
    # lsaps.linalg loads scipy's LAPACK extension alone: scipy's package
    # init would pull in subprocess, and the scipy.linalg one numpy.f2py,
    # numpy.testing and, through it, unittest. lsaps.sim is loaded by the
    # benchmark subcommand alone.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import lsaps.cli; "
        "print(' '.join(m for m in ('scipy', 'scipy.signal', 'scipy.sparse', 'scipy.linalg', "
        "'numpy.f2py', 'numpy.testing', 'unittest', 'statistics', 'lsaps.sim') "
        "if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == ""


def test_package_names_load_on_first_use():
    # lsaps/__init__.py serves the names of __all__, and the submodules,
    # through a module __getattr__ (PEP 562). In a fresh interpreter,
    # `import lsaps` loads no lsaps module, dir() lists every name, and the
    # first use of a name or a submodule loads its module.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import lsaps\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('lsaps.'))\n"
        "print(set(lsaps.__all__) <= set(dir(lsaps)), *loaded())\n"
        "lsaps.snr\n"
        "print('lsaps.sim' in loaded(), 'lsaps.cli' in loaded())\n"
        "print(lsaps.smoothers.smooth_ps is lsaps.smooth_ps, 'lsaps.cli' in loaded())\n"
        "lsaps.cli\n"
        "print('lsaps.cli' in loaded())"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["True", "True", "False", "True", "False", "True"]
    # Every name resolves, to the object of its own name.
    import lsaps
    assert lsaps.__all__ == sorted(lsaps.__all__) and len(lsaps.__all__) == 18
    for name in lsaps.__all__:
        assert getattr(lsaps, name).__name__ == name
    from lsaps import snr
    assert snr is sim.snr and lsaps.run_benchmark is sim.run_benchmark
    with pytest.raises(AttributeError, match="^module 'lsaps' has no attribute 'unknown'$"):
        lsaps.unknown


def test_cli_sg_smooth_skips_scipy_signal_and_ndimage(tmp_path, noisy_file):
    # A fresh interpreter, so modules imported by other tests do not count.
    path, _ = noisy_file
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from lsaps import cli; "
        "rc = cli.main(['smooth', sys.argv[2], '--method', 'sg', '--window', '9', "
        "'--order', '4', '--out', sys.argv[3]]); "
        "print(rc, ' '.join(m for m in ('scipy.signal', 'scipy.ndimage') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(src), str(path), str(tmp_path / "out")],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "0"
    assert (tmp_path / "out" / "smoothed.txt").exists()


@pytest.mark.parametrize("run", [
    ["smooth", "{spectrum}", "--param", "2.5", "--peaks", "5", "--out", "{out}"],
    ["smooth", "{spectrum}", "--auto", "--peaks", "5", "--out", "{out}"],
    ["benchmark", "{scenario}", "--out", "{out}"],
], ids=["smooth-param", "smooth-auto", "benchmark"])
def test_cli_run_loads_no_new_module(tmp_path, noisy_file, run):
    # A fresh interpreter: a run imports no top-level module that importing
    # lsaps.cli did not. Smooth runs take the fast ingest path (loadtxt
    # given a path, not an open file, would import gzip).
    path, _ = noisy_file
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"resolutions": [100], "seeds": [0, 1],
                                    "methods": {"ps": [1.0], "sg": [[5, 2]], "gaussian": [1]}}))
    argv = [a.format(spectrum=path, scenario=scenario, out=tmp_path / "out") for a in run]
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from lsaps import cli\n"
        "def line_parser(*args): raise AssertionError('the line parser ran')\n"
        "cli._ingest_lines = line_parser\n"
        "top = lambda: {m.partition('.')[0] for m in sys.modules}; before = top()\n"
        "rc = cli.main(sys.argv[2:])\n"
        "print(rc, *sorted(top() - before))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(src), *argv], capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "0"
