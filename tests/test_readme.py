"""The README's Python API example runs as written."""

import re
from pathlib import Path

import numpy as np

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
