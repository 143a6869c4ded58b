import json

import numpy as np
import pytest

from twopoint.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SEMANTIC,
    EXIT_VERIFY_FAILED,
    MatrixFileError,
    json_to_matrix,
    main,
    matrix_to_json,
)
from twopoint.correlator import CorrelatorFamily, choi_builders

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
KET0 = np.diag([1.0, 0.0]).astype(complex)
MIXED2 = np.eye(2, dtype=complex) / 2


def _write(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_json(matrix)), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# --- matrix format -------------------------------------------------------------


def test_matrix_round_trip_is_exact():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    back = json_to_matrix(json.loads(json.dumps(matrix_to_json(m))))
    assert np.array_equal(back, m)


def test_json_to_matrix_rejects_malformed_objects():
    with pytest.raises(MatrixFileError, match="JSON object"):
        json_to_matrix([1, 2, 3])
    with pytest.raises(MatrixFileError, match="missing key"):
        json_to_matrix({"rows": 1, "cols": 1})
    with pytest.raises(MatrixFileError, match="positive integers"):
        json_to_matrix({"rows": 0, "cols": 1, "data": []})
    with pytest.raises(MatrixFileError, match="positive integers"):
        json_to_matrix({"rows": "2", "cols": 1, "data": [[0, 0], [0, 0]]})
    with pytest.raises(MatrixFileError, match="rows\\*cols"):
        json_to_matrix({"rows": 2, "cols": 2, "data": [[0, 0]]})
    with pytest.raises(MatrixFileError, match="number pair"):
        json_to_matrix({"rows": 1, "cols": 1, "data": [[0]]})
    with pytest.raises(MatrixFileError, match="number pair"):
        json_to_matrix({"rows": 1, "cols": 1, "data": [[True, 0]]})
    with pytest.raises(MatrixFileError, match="finite"):
        json_to_matrix({"rows": 1, "cols": 1, "data": [[1e999, 0]]})


# --- decompose ------------------------------------------------------------------


def test_decompose_identity_channel(tmp_path, capsys):
    j_id = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            j_id[2 * i + i, 2 * j + j] = 1.0
    path = _write(tmp_path, "jid.json", j_id)
    code, out = _run(capsys, ["decompose", path, "--din", "2", "--dout", "2"])
    assert code == EXIT_OK
    report = json.loads(out)
    lams = [t["lambda"] for t in report["terms"]]
    assert np.allclose(lams, [0.0, 0.0, 0.0, 4.0], atol=1e-9)
    assert report["bound"] == pytest.approx(1.0, abs=1e-9)
    assert report["is_cp_flags"] == [True] * 4
    top = json_to_matrix(report["terms"][-1]["effect"])
    phi = j_id / 2.0
    assert np.allclose(top, phi / 2.0, atol=1e-9)  # projector / d_out


def test_decompose_dumped_family_matrix(tmp_path, capsys):
    dump = tmp_path / "dump"
    code, _ = _run(capsys, ["verify", "2", "--dump", str(dump)])
    assert code == EXIT_OK
    code, out = _run(
        capsys,
        ["decompose", str(dump / "choi_real_d2.json"), "--din", "2", "--dout", "4"],
    )
    assert code == EXIT_OK
    report = json.loads(out)
    lams = [t["lambda"] for t in report["terms"]]
    assert np.allclose(lams, [-2, -2, 0, 0, 0, 0, 6, 6], atol=1e-8)
    assert report["bound"] == pytest.approx(2.0, abs=1e-9)


def test_decompose_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    out_path = tmp_path / "report.json"
    code = main(
        ["decompose", str(path), "--din", "2", "--dout", "2", "--out", str(out_path)]
    )
    capsys.readouterr()
    assert code == EXIT_PARSE
    assert not out_path.exists()


@pytest.mark.parametrize(
    "content",
    [b'{"rows": 1, "cols": 1, "data": [[1' + b"0" * 400 + b', 0]]}', b"\xff\xfe{}"],
    ids=["integer-beyond-float", "not-utf8"],
)
def test_estimate_unreadable_matrix_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "rho.json"
    bad.write_bytes(content)
    a = _write(tmp_path, "a.json", SX)
    code = main(["estimate", str(bad), a, a])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err.startswith("error: ") and err.count("\n") == 1


def test_decompose_dimension_mismatch_exits_3(tmp_path, capsys):
    path = _write(tmp_path, "m.json", np.eye(4, dtype=complex))
    code = main(["decompose", path, "--din", "3", "--dout", "2"])
    capsys.readouterr()
    assert code == EXIT_SEMANTIC


def test_decompose_missing_file_exits_2(tmp_path, capsys):
    code = main(["decompose", str(tmp_path / "nope.json"), "--din", "2", "--dout", "2"])
    capsys.readouterr()
    assert code == EXIT_PARSE


def test_decompose_boolean_dimensions_exits_2(tmp_path, capsys):
    # booleans are JSON literals, not integers, here as in data entries
    path = tmp_path / "bool.json"
    path.write_text('{"rows": true, "cols": true, "data": [[1.0, 0.0]]}', encoding="utf-8")
    code = main(["decompose", str(path), "--din", "1", "--dout", "1"])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: rows/cols must be positive integers")


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--din", "-1", "--dout", "-4"], "--din"),
        (["--din", "2", "--dout", "0"], "--dout"),
        (["--din", "2", "--dout", "2", "--tol", "-1"], "--tol"),
        (["--din", "2", "--dout", "2", "--tol", "nan"], "--tol"),
    ],
)
def test_decompose_bad_flags_exit_3(tmp_path, capsys, flags, named):
    path = _write(tmp_path, "m.json", np.eye(4, dtype=complex))
    code = main(["decompose", path, *flags])
    captured = capsys.readouterr()
    assert code == EXIT_SEMANTIC
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named} must be")


# --- estimate -------------------------------------------------------------------


def test_estimate_pauli_commutator(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", KET0)
    a = _write(tmp_path, "a.json", SX)
    b = _write(tmp_path, "b.json", SY)
    code, out = _run(capsys, ["estimate", rho, a, b, "--shots", "40000", "--seed", "7"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["exact"] == pytest.approx([0.0, -1.0], abs=1e-12)
    assert payload["n_shots"] == 40000
    assert payload["seed"] == 7
    for k in range(2):
        assert (
            abs(payload["estimate"][k] - payload["exact"][k])
            <= 5 * payload["std_error"][k] + 1e-12
        )


def test_estimate_identity_pair_exact_field(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", MIXED2)
    one = _write(tmp_path, "one.json", np.eye(2, dtype=complex))
    code, out = _run(capsys, ["estimate", rho, one, one, "--shots", "4000"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["exact"] == pytest.approx([1.0, 0.0], abs=1e-12)


def test_estimate_repeat_is_byte_identical(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", KET0)
    a = _write(tmp_path, "a.json", SX)
    b = _write(tmp_path, "b.json", SY)
    argv = ["estimate", rho, a, b, "--shots", "4000", "--seed", "11"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def test_estimate_threads_flag_keeps_output(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", KET0)
    a = _write(tmp_path, "a.json", SX)
    b = _write(tmp_path, "b.json", SY)
    base = ["estimate", rho, a, b, "--shots", "70000", "--seed", "5"]
    _, serial = _run(capsys, base + ["--threads", "1"])
    _, pooled = _run(capsys, base + ["--threads", "3"])
    assert serial == pooled


def test_estimate_split_flag(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", KET0)
    a = _write(tmp_path, "a.json", SX)
    b = _write(tmp_path, "b.json", SY)
    code, out = _run(
        capsys, ["estimate", rho, a, b, "--shots", "4000", "--split", "0.9"]
    )
    assert code == EXIT_OK
    assert json.loads(out)["n_shots"] == 4000
    code = main(["estimate", rho, a, b, "--shots", "4000", "--split", "1.5"])
    capsys.readouterr()
    assert code == EXIT_SEMANTIC


def test_estimate_zero_shots_exits_3(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", KET0)
    a = _write(tmp_path, "a.json", SX)
    code = main(["estimate", rho, a, a, "--shots", "0"])
    capsys.readouterr()
    assert code == EXIT_SEMANTIC


def test_estimate_negative_threads_exits_3(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", KET0)
    a = _write(tmp_path, "a.json", SX)
    code = main(["estimate", rho, a, a, "--threads", "-3"])
    assert "thread" in capsys.readouterr().err
    assert code == EXIT_SEMANTIC


def test_estimate_help_mentions_default_seed(capsys):
    code = main(["estimate", "--help"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "0x2A" in out


# --- verify ----------------------------------------------------------------------


def test_verify_qubit_dimension(capsys):
    code, out = _run(capsys, ["verify", "2"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["d"] == 2
    assert report["passed"] is True
    assert len(report["checks"]) == 11
    assert all(c["passed"] for c in report["checks"])
    names = {c["name"] for c in report["checks"]}
    assert {"real_identity", "imag_identity", "cp_tp_flags"} <= names


def test_verify_d8(capsys):
    code, out = _run(capsys, ["verify", "8"])
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("d", ["1", "17"])
def test_verify_out_of_range_exits_3(capsys, d):
    code = main(["verify", d])
    capsys.readouterr()
    assert code == EXIT_SEMANTIC


def test_verify_impossible_tolerance_exits_1(capsys):
    code, out = _run(capsys, ["verify", "2", "--tol", "1e-30"])
    assert code == EXIT_VERIFY_FAILED
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_verify_bad_tolerance_exits_3(capsys, tol):
    code, out = _run(capsys, ["verify", "2", "--tol", tol])
    assert code == EXIT_SEMANTIC
    assert out == ""


def test_verify_dump_round_trips_family(tmp_path, capsys):
    dump = tmp_path / "mats"
    code, _ = _run(capsys, ["verify", "3", "--dump", str(dump)])
    assert code == EXIT_OK
    fam = CorrelatorFamily(3)
    chois = choi_builders(fam)
    for name, j in chois.items():
        path = dump / f"choi_{name}_d3.json"
        assert path.exists()
        loaded = json_to_matrix(json.loads(path.read_text(encoding="utf-8")))
        assert np.array_equal(loaded, j.matrix)


# --- experiment --------------------------------------------------------------------


def test_experiment_probabilities(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", KET0)
    code, out = _run(capsys, ["experiment", rho])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["p_sym"] - 3 / 16) <= 1e-10
    assert abs(payload["p_anti"] - 1 / 16) <= 1e-10
    assert payload["recombination_residual"] <= 1e-9


def test_experiment_maximally_mixed(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", MIXED2)
    code, out = _run(capsys, ["experiment", rho])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["p_sym"] - 3 / 16) <= 1e-10
    assert abs(payload["p_anti"] - 1 / 16) <= 1e-10


def test_experiment_rejects_non_qubit(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", np.eye(3, dtype=complex) / 3)
    code = main(["experiment", rho])
    capsys.readouterr()
    assert code == EXIT_SEMANTIC


# --- top-level dispatch ---------------------------------------------------------------


def test_unknown_command_exits_2(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == EXIT_PARSE


def test_output_file_flag(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", MIXED2)
    out_path = tmp_path / "result.json"
    code = main(["experiment", rho, "--out", str(out_path)])
    capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert abs(payload["p_sym"] - 3 / 16) <= 1e-10


@pytest.mark.parametrize(
    "target", ["out-in-missing-dir", "dump-on-a-file", "decompose-out-in-missing-dir"]
)
def test_unwritable_output_exits_3(tmp_path, capsys, monkeypatch, target):
    """An unwritable --out or --dump fails before any check or decomposition runs."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr("twopoint.cli._verify_checks", must_not_run)
    monkeypatch.setattr("twopoint.cli.statistical_decompose", must_not_run)
    missing = str(tmp_path / "missing" / "report.json")
    if target == "out-in-missing-dir":
        argv = ["verify", "2", "--out", missing]
    elif target == "dump-on-a-file":
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        argv = ["verify", "2", "--dump", str(blocker)]
    else:
        path = _write(tmp_path, "choi.json", np.eye(4) / 2)
        argv = ["decompose", path, "--din", "2", "--dout", "2", "--out", missing]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_SEMANTIC
    assert err.startswith("error: ") and err.count("\n") == 1
