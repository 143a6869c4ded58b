"""README's Python example runs and its commented values hold."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import twopoint
from twopoint.cli import main, matrix_to_json
from twopoint.correlator import CorrelatorFamily, real_part_apply

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
    readout = ns["partial_expectation"](ns["dil"], rho)
    assert np.abs(readout - real_part_apply(CorrelatorFamily(2), rho)).max() <= 1e-10


def test_public_surface_is_what_readme_and_benchmark_use():
    """twopoint.__all__ is README's Python imports, the documented dilation
    readout, and every tp.<name> the benchmark scripts use; nothing else."""
    imported = re.search(r"from twopoint import \((.*?)\)", _python_block(), re.S).group(1)
    names = {n.strip() for n in imported.split(",") if n.strip()}
    for script in (README.parent / "perfbench").glob("*.py"):
        names |= set(re.findall(r"\btp\.(\w+)", script.read_text(encoding="utf-8")))
    names.add("partial_expectation")
    assert sorted(twopoint.__all__) == sorted(names)
    assert all(hasattr(twopoint, n) for n in twopoint.__all__)


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
