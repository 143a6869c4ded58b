"""README's Python example runs and its commented values hold."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from twopoint.cli import main, matrix_to_json

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_python_example():
    ns = {}
    exec(compile(_python_block(), str(README), "exec"), ns)
    rho, sx, sy = ns["rho"], ns["sx"], ns["sy"]
    assert ns["two_point_exact"](rho, sx, sy) == pytest.approx(-1j, abs=1e-14)  # exact: -1j
    report = ns["report"]
    err = report.estimate - report.exact
    assert abs(err.real) <= 5 * report.std_error[0] and abs(err.imag) <= 5 * report.std_error[1]
    assert ns["dec"].weights == pytest.approx((3, -1), abs=1e-12)  # weights (+3, -1)
    stats = ns["stats"]
    assert stats.p_sym == pytest.approx(3 / 16, abs=1e-12)
    assert stats.p_anti == pytest.approx(1 / 16, abs=1e-12)
    want = np.trace(rho @ (sx @ sx + sx @ sx)).real / 2  # Tr[rho (AB+BA)]/2
    assert ns["recombine_coincidences"](stats, sx, sx) == pytest.approx(want, abs=1e-12)


def test_readme_estimate_example_is_real_output(tmp_path, capsys):
    text = README.read_text(encoding="utf-8")
    command, shown = re.search(r"\$ (twopoint estimate .*?)\n(\{.*?\n\})\n", text, re.S).groups()
    matrices = {
        "rho.json": np.diag([1.0, 0.0]),  # |0><0|
        "a.json": np.array([[0, 1], [1, 0]]),  # Pauli X
        "b.json": np.array([[0, -1j], [1j, 0]]),  # Pauli Y
    }
    argv = shlex.split(command)[1:]
    for i, arg in enumerate(argv):
        if arg in matrices:
            path = tmp_path / arg
            path.write_text(json.dumps(matrix_to_json(matrices[arg])), encoding="utf-8")
            argv[i] = str(path)
    assert main(argv) == 0
    assert capsys.readouterr().out == shown + "\n"
