import json

import numpy as np
import pytest

from lsaps import cli
from lsaps.sim import SimScenario, add_noise, generate_clean


def write_spectrum(path, abscissa, intensity, sep="\t", header=None):
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for a, b in zip(abscissa, intensity):
            fh.write(f"{float(a)!r}{sep}{float(b)!r}\n")


@pytest.fixture()
def noisy_file(tmp_path):
    scenario = SimScenario(n=400)
    clean = generate_clean(scenario)
    noisy, _ = add_noise(clean, 0.2, 5)
    path = tmp_path / "spectrum.txt"
    write_spectrum(path, noisy.abscissa, noisy.intensity)
    return path, noisy


class TestIngest:
    def test_tab_separated(self, tmp_path, noisy_file):
        path, noisy = noisy_file
        spec = cli.ingest(path)
        assert np.allclose(spec.abscissa, noisy.abscissa)
        assert np.allclose(spec.intensity, noisy.intensity)

    def test_comma_and_header(self, tmp_path):
        path = tmp_path / "s.csv"
        write_spectrum(path, [0.0, 1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0, 9.0],
                       sep=",", header="wavenumber,intensity")
        spec = cli.ingest(path)
        assert spec.n == 5
        assert spec.intensity[0] == 5.0

    def test_whitespace(self, tmp_path):
        path = tmp_path / "s.dat"
        write_spectrum(path, [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0, 5.0], sep="   ")
        assert cli.ingest(path).n == 5

    def test_rows_sorted(self, tmp_path):
        path = tmp_path / "s.txt"
        write_spectrum(path, [4.0, 0.0, 2.0, 1.0, 3.0], [40.0, 0.0, 20.0, 10.0, 30.0])
        spec = cli.ingest(path)
        assert np.array_equal(spec.abscissa, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(spec.intensity, [0.0, 10.0, 20.0, 30.0, 40.0])

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

    def test_explicit_delimiter(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0;1\n1;2\n2;3\n3;4\n4;5\n")
        assert cli.ingest(path, delimiter=";").n == 5


class TestSmoothCommand:
    def test_fixed_parameter_outputs(self, tmp_path, noisy_file):
        path, noisy = noisy_file
        out = tmp_path / "out"
        rc = cli.main(["smooth", str(path), "--method", "ps", "--param", "5", "--out", str(out)])
        assert rc == 0
        smoothed = cli.ingest(out / "smoothed.txt")
        from lsaps.smoothers import smooth_ps

        expected = smooth_ps(noisy.intensity, 5.0)
        assert np.allclose(smoothed.intensity, expected, rtol=1e-11, atol=1e-11)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "ps"
        assert summary["parameter"] == 5.0
        d2 = cli.ingest(out / "second_derivative.txt")
        assert d2.n == noisy.n - 2

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
        path, noisy = noisy_file
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
        path, noisy = noisy_file
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

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--param", "-1"], "lambda_bar must be >= 0"),
            (["--param", "nan"], "lam must be finite"),
            (["--method", "ps", "--param", "-1"], "lam must be >= 0"),
            (["--auto", "--grid", "nan,1"], "candidates must be finite"),
            (["--auto", "--grid", "1,,2"], "--grid must be comma-separated numbers"),
            (["--param", "1", "--peaks", "-1"], "k must be >= 1"),
        ],
    )
    def test_bad_parameter_prints_json_line(self, tmp_path, noisy_file, capsys, extra, message):
        path, _ = noisy_file
        rc = cli.main(["smooth", str(path), *extra, "--out", str(tmp_path / "x")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "InvalidConfigError"
        assert message in record["message"]

    def test_auto_rejected_for_sg(self, tmp_path, noisy_file, capsys):
        path, _ = noisy_file
        rc = cli.main(["smooth", str(path), "--method", "sg", "--auto", "--out", str(tmp_path / "x")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert "auto" in record["message"]


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
            "methods": {"ps": [1.0, 10.0], "none": [None]},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return path

    def test_outputs(self, tmp_path, scenario_file):
        out = tmp_path / "bench"
        rc = cli.main(["benchmark", str(scenario_file), "--out", str(out)])
        assert rc == 0
        cells = (out / "cells.csv").read_text().strip().splitlines()
        assert cells[0].startswith("resolution,sigma,method,parameter,seed")
        assert len(cells) == 1 + 2 * 3  # 2 seeds x (2 ps + 1 none)
        aggregates = (out / "aggregates.csv").read_text().strip().splitlines()
        assert len(aggregates) == 1 + 3
        best = (out / "best.csv").read_text().strip().splitlines()
        assert len(best) == 1 + 2 * 2  # snr + rrse per method
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cells"] == 6
        assert set(summary["single_call_median_time_s"]) == {"ps", "none"}

    def test_value_columns_deterministic(self, tmp_path, scenario_file):
        def strip_times(out_dir):
            rows = []
            for line in (out_dir / "cells.csv").read_text().strip().splitlines():
                cols = line.split(",")
                del cols[8]  # time_s
                rows.append(",".join(cols))
            return rows

        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        cli.main(["benchmark", str(scenario_file), "--out", str(out1)])
        cli.main(["benchmark", str(scenario_file), "--out", str(out2)])
        assert strip_times(out1) == strip_times(out2)
        assert (out1 / "aggregates.csv").read_text() == (out2 / "aggregates.csv").read_text()
        assert (out1 / "best.csv").read_text() == (out2 / "best.csv").read_text()

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"methods": {"sg": [5]}}),
            json.dumps({"seeds": ["x"]}),
            json.dumps({"background": {"foo": 1}}),
            '{"seeds": [0',
            "[1]",
            None,
        ],
    )
    def test_malformed_scenario_prints_json_line(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        if text is not None:  # None: the file does not exist
            path.write_text(text)
        rc = cli.main(["benchmark", str(path), "--out", str(tmp_path / "x")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "LsapsError"
        assert record["message"].startswith("scenario file: ")

    def test_invalid_scenario(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"methods": {"median": [3]}}))
        rc = cli.main(["benchmark", str(path), "--out", str(tmp_path / "x")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert "median" in record["message"]
