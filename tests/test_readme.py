"""The README's Python API and scenario file examples run as written."""

import json
import re
from pathlib import Path

import numpy as np

from lsaps import cli
from lsaps.sim import SimScenario, add_noise, generate_clean

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    block = re.search(r"```python\n(.*?)```", text[text.index("## Python API"):], re.S).group(1)
    scenario = SimScenario(n=1000)
    y, _ = add_noise(generate_clean(scenario), 0.2, 0)
    np.savetxt(tmp_path / "spectrum.txt", np.column_stack((scenario.grid(), y)))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["results"]) == 3
    assert all(not isinstance(fit, Exception) for fit in namespace["results"])
    assert len(namespace["peaks"]) == 20
    assert capsys.readouterr().out.startswith(f"{namespace['result'].best_parameter} [")


def test_scenario_example_runs(tmp_path, capsys):
    # The scenario schema example of "lsaps benchmark", as written.
    text = README.read_text()
    block = re.search(r"```json\n(.*?)```", text[text.index("### `lsaps benchmark`"):], re.S).group(1)
    (tmp_path / "scenario.json").write_text(block)
    out = tmp_path / "bench"
    assert cli.main(["benchmark", str(tmp_path / "scenario.json"), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["methods"] == {"ps": 2, "lsa-ps": 2, "sg": 2, "gaussian": 3}
    assert summary["cells"] == 2 * 2 * 3 * 9
