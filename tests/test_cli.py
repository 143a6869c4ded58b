import io
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twopoint import cli, correlator
from twopoint.choi import ChoiOperator
from twopoint.cli import (
    BLOCK,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SEMANTIC,
    EXIT_VERIFY_FAILED,
    MatrixFileError,
    _decode_pairs,
    _random_observable,
    _verify_checks,
    _write_json,
    json_to_matrix,
    main,
    matrix_to_json,
)
from twopoint.correlator import CorrelatorFamily, choi_builders
from twopoint.decomposition import StatisticalDecomposition, error_lower_bound
from twopoint.sampler import DEFAULT_SEED

from reference_maps import dense_verify_values

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


def _traced(argv):
    """main(argv)'s exit code and tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        return main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 2**32 - 1),
    ints=st.lists(st.integers(-(2**80), 2**80) | st.sampled_from([0, 2**53 + 1, -(10**300)]),
                  max_size=4),
)
def test_bulk_decode_matches_pair_by_pair(shape, seed, ints):
    """Random MatrixFiles, some entries plain or large integers, read back
    through JSON: the bulk decoder gives the pair-by-pair decoder's bits."""
    rng = np.random.default_rng(seed)
    obj = matrix_to_json(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    for value in ints:
        obj["data"][rng.integers(len(obj["data"]))][rng.integers(2)] = value
    obj = json.loads(json.dumps(obj))
    got, want = json_to_matrix(obj), _decode_pairs(obj["data"]).reshape(shape)
    assert np.array_equal(got.view(float), want.view(float))
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


@pytest.mark.parametrize(
    "entry",
    ["1.5", "[1.0]", "[1.0, 2.0, 3.0]", "[true, 0]", "[0, null]", '["1", 0]', "[[1], 0]",
     "{}", "[1" + "0" * 400 + ", 0]", "[NaN, 0]", "[0, Infinity]", "[-1e999, 0]"],
)
def test_bad_data_entry_exits_2_naming_it(tmp_path, capsys, entry):
    """A bad pair after two good ones: exit 2, and the message names
    data[2]."""
    path = tmp_path / "rho.json"
    path.write_text(
        '{"rows": 2, "cols": 2, "data": [[0.5, 0], [0, 0], ' + entry + ', [0.5, 0]]}',
        encoding="utf-8",
    )
    a = _write(tmp_path, "a.json", SX)
    assert main(["estimate", str(path), a, a]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: data[2] ") and err.count("\n") == 1


# --- JSON writer ----------------------------------------------------------------


def _reference_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _written(obj) -> str:
    fh = io.StringIO()
    _write_json(obj, fh)
    return fh.getvalue()


def _listed(obj):
    """``obj`` with each matrix as its MatrixFile data list, as json.dumps takes it."""
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj)["data"]
    if isinstance(obj, dict):
        return {key: _listed(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_listed(value) for value in obj]
    return obj


SPECIAL_FLOATS = [-0.0, 5e-324, 1e-5, 1e16, float("nan"), float("inf"), -float("inf")]
FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**40, -(2**70)])
    | FLOATS | st.text()
)


@st.composite
def matrix_files(draw):
    """MatrixFile dicts of random complex arrays, some entries special floats,
    with ``data`` as a list of [re, im] pairs or as the array itself."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    flat = m.reshape(-1).view(float)
    for value in draw(st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=3)):
        flat[rng.integers(flat.size)] = value
    return {"rows": rows, "cols": cols, "data": m} if draw(st.booleans()) else matrix_to_json(m)


JSON_VALUES = st.recursive(
    SCALARS | matrix_files(),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(), children, max_size=4)
    | st.lists(st.lists(FLOATS | SCALARS, min_size=2, max_size=2), max_size=4),
    max_leaves=30,
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(JSON_VALUES)
@example({"\u00e9t\u00e9": [[-0.0, 5e-324]], "\u043a\u043b\u044e\u0447": None, "a": {}, "b": []})
@example([[1e-5, 1e16], [2.5, -0.0]])
def test_writer_matches_json_dumps(obj):
    assert _written(obj) == _reference_dumps(_listed(obj))


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_writer_formats_array_blocks_as_json_dumps_formats_lists(n):
    """An n-entry matrix, cut into blocks of BLOCK pairs, with every special
    float in it (non-finite ones as NaN and Infinity, as json.dumps writes
    them), inside a list given as an iterator."""
    rng = np.random.default_rng(n)
    m = rng.normal(size=(1, n)) + 1j * rng.normal(size=(1, n))
    flat = m.reshape(-1).view(float)
    flat[rng.permutation(flat.size)[: len(SPECIAL_FLOATS)]] = SPECIAL_FLOATS[: flat.size]
    file = {"rows": 1, "cols": n, "data": m}
    got = _written({"terms": iter([file, {"data": m.T}]), "none": iter([]), "zero": m[:0]})
    listed = {"terms": [_listed(file), {"data": _listed(m.T)}], "none": [], "zero": []}
    assert got == _reference_dumps(listed)


def test_decompose_output_matches_json_dumps(tmp_path, capsys):
    """A d_in = 4, d_out = 16 map: 64 effects of 4,096 [re, im] pairs each."""
    rng = np.random.default_rng(416)
    path = _write(tmp_path, "map.json", _random_observable(rng, 64))
    code, out = _run(capsys, ["decompose", path, "--din", "4", "--dout", "16"])
    assert code == EXIT_OK
    want = _reference_dumps(json.loads(out))
    if out != want:  # report the place, not a diff of two 25 MB strings
        at = len(os.path.commonprefix([out, want]))
        pytest.fail(f"differs from json.dumps at {at}: {out[at - 40:at + 40]!r}")


def test_decompose_streams_its_report(tmp_path):
    """The same map written with --out: the report (25 MB of text) is never
    held whole, so the peak is about one term (about 84 MB when the report
    was built before writing), and the file is json.dumps' text."""
    rng = np.random.default_rng(416)
    path = _write(tmp_path, "map.json", _random_observable(rng, 64))
    out = tmp_path / "report.json"
    code, peak = _traced(["decompose", path, "--din", "4", "--dout", "16", "--out", str(out)])
    assert code == EXIT_OK
    assert peak < 12e6
    text = out.read_text(encoding="utf-8")
    assert text == _reference_dumps(json.loads(text))


@pytest.mark.parametrize("case", ["not-hermiticity-preserving", "side-does-not-factor"])
def test_decompose_failure_writes_no_report(tmp_path, capsys, case):
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    d_in = "2" if case == "side-does-not-factor" else "3"
    path = _write(tmp_path, "map.json", m)
    out = tmp_path / "report.json"
    code = main(["decompose", path, "--din", d_in, "--dout", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_SEMANTIC and err.startswith("error: ")
    assert not out.exists()


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
    """decompose takes the process matrix that a dumped map's stacks build."""
    dump = tmp_path / "dump"
    code, _ = _run(capsys, ["verify", "2", "--dump", str(dump)])
    assert code == EXIT_OK
    left, right = _read_stacks(dump / "choi_real_d2.json", 2)
    path = _write(tmp_path, "real.json", ChoiOperator(None, 2, 4, kraus=left, right=right).matrix)
    code, out = _run(capsys, ["decompose", path, "--din", "2", "--dout", "4"])
    assert code == EXIT_OK
    report = json.loads(out)
    lams = [t["lambda"] for t in report["terms"]]
    assert np.allclose(lams, [-2, -2, 0, 0, 0, 0, 6, 6], atol=1e-8)
    assert report["bound"] == pytest.approx(2.0, abs=1e-9)


def test_decompose_tol_reaches_the_bound(tmp_path, capsys):
    """--tol is the hermiticity tolerance of the bound as well as of the
    decomposition: a map whose anti-Hermitian part is 1e-8 of its norm
    passes at --tol 1e-6 and fails at the default 1e-10."""
    g = np.random.default_rng(15).normal(size=(8, 16)).view(complex)
    h, k = (g + g.conj().T) / 2, (g - g.conj().T) / 2
    m = h + 0.5e-8 * np.linalg.norm(h) / np.linalg.norm(k) * k
    path = _write(tmp_path, "near.json", m)
    code, out = _run(capsys, ["decompose", path, "--din", "2", "--dout", "4", "--tol", "1e-6"])
    assert code == EXIT_OK
    want = error_lower_bound(ChoiOperator(h, d_in=2, d_out=4))
    assert json.loads(out)["bound"] == pytest.approx(want, abs=1e-6)
    code = main(["decompose", path, "--din", "2", "--dout", "4"])
    assert code == EXIT_SEMANTIC
    assert "not hermiticity-preserving within tolerance" in capsys.readouterr().err


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


def test_estimate_has_no_threads_flag(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", KET0)
    a = _write(tmp_path, "a.json", SX)
    code = main(["estimate", rho, a, a, "--threads", "1"])
    assert "--threads" in capsys.readouterr().err
    assert code == EXIT_PARSE


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



def test_estimate_negative_seed_exits_3(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", KET0)
    a = _write(tmp_path, "a.json", SX)
    code = main(["estimate", rho, a, a, "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == EXIT_SEMANTIC
    assert captured.out == ""
    assert captured.err == "error: seed must be non-negative, got -1\n"

def test_estimate_shot_budget_range(tmp_path, capsys):
    """Budgets up to 2**63 - 1 run (the counts are int64); above, one error
    line and exit 3."""
    rho = _write(tmp_path, "rho.json", KET0)
    a = _write(tmp_path, "a.json", SX)
    code, out = _run(capsys, ["estimate", rho, a, a, "--shots", str(2**63 - 1)])
    assert code == EXIT_OK
    assert json.loads(out)["n_shots"] == 2**63 - 1
    code = main(["estimate", rho, a, a, "--shots", "100000000000000000000"])
    captured = capsys.readouterr()
    assert code == EXIT_SEMANTIC
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("scale", [1e-320, 5e-324])
def test_estimate_takes_subnormal_observables(tmp_path, capsys, scale):
    """A = scale sigma_z with subnormal entries is judged Hermitian, by an
    exact scaling, and is estimated."""
    rho = _write(tmp_path, "rho.json", MIXED2)
    a = _write(tmp_path, "a.json", scale * np.diag([1.0, -1.0]))
    one = _write(tmp_path, "one.json", np.eye(2))
    code, out = _run(capsys, ["estimate", rho, a, one, "--shots", "1000"])
    assert code == EXIT_OK
    assert all(np.isfinite(json.loads(out)["estimate"]))


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


@pytest.mark.parametrize("d", range(2, 17))
def test_verify_checks_pass_at_default_thresholds(d):
    checks, _ = _verify_checks(d, DEFAULT_SEED, None)
    assert [c["name"] for c in checks if not c["passed"]] == []


@pytest.mark.parametrize("d", range(2, 9))
def test_verify_checks_match_dense_reference(d):
    """Every residual, bound and flag equals the dense computation's; above
    d = 8 the d^3-sided eigendecompositions of the reference take seconds."""
    checks, _ = _verify_checks(d, DEFAULT_SEED, None)
    want = dense_verify_values(d, DEFAULT_SEED)
    assert [c["name"] for c in checks] == list(want)
    for c in checks:
        assert abs(c["residual"] - want[c["name"]]) <= 1e-12, c["name"]


def test_verify_eigendecompositions_are_at_most_d_squared(monkeypatch):
    sides = []
    for name in ("eigh", "eigvalsh"):

        def recorded(m, *args, _eig=getattr(np.linalg, name), **kwargs):
            sides.append(np.shape(m)[-1])
            return _eig(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    checks, _ = _verify_checks(8, DEFAULT_SEED, None)
    assert all(c["passed"] for c in checks)
    assert sides and max(sides) <= 8 * 8


def test_verify_keeps_only_compressed_matrices_in_memory():
    """No check builds the d^3 x 2r matrix [vec L | vec R] or its orthonormal
    basis for more than the bound's two parts, so the tracemalloc peak of the
    whole suite at d = 12 is about 10 MB (24 MB when every map cached Q)."""
    tracemalloc.start()
    try:
        checks, _ = _verify_checks(12, 42, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c["passed"] for c in checks)
    assert peak <= 16 * 2**20, peak


def test_verify_fails_real_identity_on_a_flipped_factor(monkeypatch):
    """The identity checks compare the parts built from S (1 (x) rho) with the
    branches, so a sign flipped in the factor L_0 = S (|0> (x) 1) must show.
    L_0 sits in both halves of the stack [c L, conj(c) R] / [R, L]; flipping
    it in both keeps the part Hermitian, so every check still runs."""
    ideal_part = correlator._ideal_part

    def flipped(d, c):
        left, right = (s.copy() for s in ideal_part(d, c).stacks)
        left[0] *= -1
        right[d] *= -1
        return ChoiOperator(None, d_in=d, d_out=d * d, kraus=left, right=right)

    monkeypatch.setattr(correlator, "_ideal_part", flipped)
    checks = {c["name"]: c for c in _verify_checks(3, DEFAULT_SEED, None)[0]}
    assert checks["real_identity"]["residual"] > 0.1
    assert not checks["real_identity"]["passed"]


def test_verify_catches_branch_probabilities_off_at_some_states_only(monkeypatch):
    """One more Kraus operator sqrt(eps) |w><v| on the symmetric effect moves
    its p(rho) by eps <v|rho^T|v>: eps = 2e-10, twice the threshold, at the
    worst state, and about eps / d at a random one (20 random states at d = 8
    saw at most 4.0e-11, and 3.6e-10 for the cost against its 1e-9)."""
    eps, d = 2e-10, 8
    rng = np.random.default_rng(42)
    v, w = (rng.normal(size=n) + 1j * rng.normal(size=n) for n in (d, d * d))
    v, w = v / np.linalg.norm(v), w / np.linalg.norm(w)
    real_decomposition = cli.universal_real_decomposition

    def perturbed(d):
        dec = real_decomposition(d)
        sym = dec.effects[0]
        kraus = np.concatenate([sym.kraus, np.sqrt(eps) * np.outer(w, v.conj())[None]])
        bent = ChoiOperator(None, d_in=d, d_out=d * d, kraus=kraus)
        return StatisticalDecomposition(dec.weights, (bent,) + dec.effects[1:])

    monkeypatch.setattr(cli, "universal_real_decomposition", perturbed)
    checks = {c["name"]: c for c in _verify_checks(d, DEFAULT_SEED, None)[0]}
    assert checks["branch_probabilities"]["residual"] == pytest.approx(eps, rel=1e-4)
    assert not checks["branch_probabilities"]["passed"]
    assert not checks["real_saturation"]["passed"]


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


def _read_stacks(path, d):
    """The (L, R) stacks of a ``verify --dump`` file of dimension d."""
    files = json.loads(path.read_text(encoding="utf-8"))
    return [json_to_matrix(files[side]).reshape(-1, d * d, d) for side in ("left", "right")]


def test_verify_dump_round_trips_family(tmp_path, capsys):
    """verify 6 --dump: each file holds its map's stacks, which rebuild its
    process matrix bit for bit, and the dump adds less to the peak than the
    text of one file. The run without --dump goes first, so that neither
    peak holds the imports of a first run."""
    _, checks_only = _traced(["verify", "6"])
    dump = tmp_path / "mats"
    code, peak = _traced(["verify", "6", "--dump", str(dump)])
    assert code == EXIT_OK
    capsys.readouterr()
    fam = CorrelatorFamily(6)
    chois = choi_builders(fam)
    for name, j in chois.items():
        path = dump / f"choi_{name}_d6.json"
        left, right = _read_stacks(path, 6)
        rebuilt = ChoiOperator(None, d_in=6, d_out=36, kraus=left, right=right)
        assert np.array_equal(rebuilt.matrix, j.matrix)
        assert peak - checks_only < len(path.read_text(encoding="utf-8"))


def test_verify_dump_builds_no_process_matrix_at_any_dimension(tmp_path, capsys, monkeypatch):
    """verify 11 --dump writes the six stack files and builds no process
    matrix, so its size does not cap d."""

    def must_not_build(self):
        raise AssertionError("a process matrix was built")

    monkeypatch.setattr(ChoiOperator, "matrix", property(must_not_build))
    dump = tmp_path / "mats"
    code, out = _run(capsys, ["verify", "11", "--dump", str(dump)])
    assert code == EXIT_OK and json.loads(out)["passed"] is True
    assert len(os.listdir(dump)) == 6
    left, right = _read_stacks(dump / "choi_real_d11.json", 11)
    assert left.shape == right.shape == (22, 121, 11)


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


def test_experiment_residual_bounds_every_unit_observable_pair(tmp_path, capsys, monkeypatch):
    """An error Tr[D (A (x) B)] put into the recombination shows in the
    residual as its root-sum-square over the 16 Pauli pairs, which bounds
    the error of every pair of observables of operator norm <= 1."""
    rng = np.random.default_rng(5)
    delta = 1e-6 * _random_observable(rng, 4)
    recombine = cli.recombine_coincidences

    def error(a, b):
        return float(np.trace(delta @ np.kron(a, b)).real)

    monkeypatch.setattr(cli, "recombine_coincidences",
                        lambda stats, a, b: recombine(stats, a, b) + error(a, b))
    code, out = _run(capsys, ["experiment", _write(tmp_path, "rho.json", KET0)])
    assert code == EXIT_OK
    residual = json.loads(out)["recombination_residual"]
    paulis = (np.eye(2), SX, SY, np.diag([1.0, -1.0]))
    assert residual == pytest.approx(np.hypot.reduce([error(p, q) for p in paulis for q in paulis]))
    for _ in range(100):
        a, b = (h / np.abs(np.linalg.eigvalsh(h)).max() for h in
                (_random_observable(rng, 2), _random_observable(rng, 2)))
        assert abs(error(a, b)) <= residual


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
    "target",
    ["out-in-missing-dir", "dump-on-a-file", "decompose-out-in-missing-dir"],
)
def test_unwritable_output_exits_3(tmp_path, capsys, monkeypatch, target):
    """An unwritable --out or --dump fails before any check or decomposition
    runs."""

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
