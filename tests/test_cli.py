import contextlib
import io
import json
import math
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
    _verify_checks,
    _write_json,
    json_to_matrix,
    main,
    matrix_to_json,
)
from twopoint.correlator import CorrelatorFamily, choi_builders
from twopoint.decomposition import StatisticalDecomposition, error_lower_bound

from reference_maps import (
    CLI_SCRIPT,
    dense_verify_values,
    jordan_parts,
    needs_vmhwm,
    random_observable,
    run_with_peak,
)

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


def test_matrix_to_json_rejects_a_non_matrix():
    with pytest.raises(ValueError, match="expected a matrix, got ndim=1"):
        matrix_to_json(np.ones(3))
    with pytest.raises(ValueError, match="expected a matrix, got ndim=3"):
        matrix_to_json(np.ones((2, 2, 2)))


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
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"


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
    """The same text, or for an object with a non-finite float, the same refusal."""
    try:
        want = _reference_dumps(_listed(obj))
    except ValueError:
        with pytest.raises(ValueError, match="not JSON compliant"):
            _written(obj)
    else:
        assert _written(obj) == want


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_writer_formats_array_blocks_as_json_dumps_formats_lists(n):
    """An n-entry matrix, cut into blocks of BLOCK pairs, with every finite
    special float in it, inside a list given as an iterator. With a
    non-finite float in its last block, the writer refuses it as
    json.dumps(allow_nan=False) refuses the listed object."""
    rng = np.random.default_rng(n)
    m = rng.normal(size=(1, n)) + 1j * rng.normal(size=(1, n))
    flat = m.reshape(-1).view(float)
    finite = [x for x in SPECIAL_FLOATS if math.isfinite(x)]
    flat[rng.permutation(flat.size)[: len(finite)]] = finite[: flat.size]
    file = {"rows": 1, "cols": n, "data": m}
    report = {"terms": [file, {"data": m.T}], "none": [], "zero": m[:0]}
    got = _written({**report, "terms": iter(report["terms"]), "none": iter([])})
    assert got == _reference_dumps(_listed(report))
    for value in (x for x in SPECIAL_FLOATS if not math.isfinite(x)):
        flat[-1] = value
        with pytest.raises(ValueError, match="not JSON compliant"):
            _reference_dumps(_listed(report))
        with pytest.raises(ValueError, match="not JSON compliant"):
            _written({**report, "terms": iter(report["terms"])})


def test_decompose_output_matches_json_dumps(tmp_path, capsys):
    """A d_in = 4, d_out = 16 map: 3 effects of 4,096 [re, im] pairs each."""
    rng = np.random.default_rng(416)
    path = _write(tmp_path, "map.json", random_observable(rng, 64))
    code, out = _run(capsys, ["decompose", path, "--din", "4", "--dout", "16"])
    assert code == EXIT_OK
    want = _reference_dumps(json.loads(out))
    if out != want:  # report the place, not a diff of two 25 MB strings
        at = len(os.path.commonprefix([out, want]))
        pytest.fail(f"differs from json.dumps at {at}: {out[at - 40:at + 40]!r}")


def test_decompose_streams_its_report(tmp_path):
    """The same map written with --out: the whole run, reading, decomposing
    and writing, peaks under 12 MB, and the file is json.dumps' text. The
    report is 1 MB, so this peak cannot show whether the writer streams;
    ``test_verify_dump_streams_each_file`` gates that."""
    rng = np.random.default_rng(416)
    path = _write(tmp_path, "map.json", random_observable(rng, 64))
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
    """J = sum_ij |ii><jj| is PSD with Tr_out J = 1: one term of weight 1
    whose effect is J itself, CP, and the bound 1."""
    j_id = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            j_id[2 * i + i, 2 * j + j] = 1.0
    path = _write(tmp_path, "jid.json", j_id)
    code, out = _run(capsys, ["decompose", path, "--din", "2", "--dout", "2"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert [t["lambda"] for t in report["terms"]] == pytest.approx([1.0], rel=1e-15)
    assert report["bound"] == pytest.approx(1.0, abs=1e-9)
    assert report["is_cp_flags"] == [True]
    assert np.abs(json_to_matrix(report["terms"][0]["effect"]) - j_id).max() <= 1e-12


def _dumped_real_part(tmp_path, capsys, d):
    """The path of the d-dimensional real part's process matrix, written from
    the stacks that ``verify d --dump`` writes, and that matrix."""
    dump = tmp_path / "dump"
    code, _ = _run(capsys, ["verify", str(d), "--dump", str(dump)])
    assert code == EXIT_OK
    left, right = _read_stacks(dump / f"choi_real_d{d}.json", d)
    jm = ChoiOperator(None, d, d * d, kraus=left, right=right).matrix
    return _write(tmp_path, "real.json", jm), jm


def test_decompose_dumped_family_matrix(tmp_path, capsys):
    """decompose takes the process matrix that a dumped map's stacks build:
    the d = 2 real part has M = Tr_out |J| = 2 1, so its terms are (2, J_+/2)
    and (-2, J_-/2), with no completion."""
    path, jm = _dumped_real_part(tmp_path, capsys, 2)
    code, out = _run(capsys, ["decompose", path, "--din", "2", "--dout", "4"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert [t["lambda"] for t in report["terms"]] == pytest.approx([2, -2], rel=1e-12)
    assert report["bound"] == pytest.approx(2.0, abs=1e-9)
    assert report["is_cp_flags"] == [True] * 2
    for term, part in zip(report["terms"], jordan_parts(jm, 2, 4)):
        assert np.abs(json_to_matrix(term["effect"]) - part / 2).max() <= 1e-12


def test_decompose_dumped_d4_real_part_in_under_1_mb(tmp_path, capsys):
    """The d = 4 real part, rebuilt from its dumped stacks: two CP terms of
    weights +-4 (10 times smaller than the eigenvalue split's -24 and 40), in
    a report under 1 MB."""
    path, _ = _dumped_real_part(tmp_path, capsys, 4)
    code, out = _run(capsys, ["decompose", path, "--din", "4", "--dout", "16"])
    assert code == EXIT_OK
    assert len(out.encode("utf-8")) < 1_000_000
    report = json.loads(out)
    assert [t["lambda"] for t in report["terms"]] == pytest.approx([4, -4], abs=1e-9)
    assert report["is_cp_flags"] == [True] * 2


@needs_vmhwm
def test_decompose_a_4x16_map_in_bounded_memory(tmp_path):
    """A generic d_in = 4, d_out = 16 map in its own process: at most 3
    terms, each with its CP flag, and a peak under 64 MB."""
    g = np.random.default_rng(416).normal(size=(64, 128)).view(complex)
    path = _write(tmp_path, "map.json", (g + g.conj().T) / 2)
    code, out, kb = run_with_peak(CLI_SCRIPT, "decompose", path, "--din", "4", "--dout", "16")
    assert code == EXIT_OK and kb < 64 * 1024, (code, kb)
    report = json.loads(out)
    assert 1 <= len(report["terms"]) <= 3
    assert len(report["is_cp_flags"]) == len(report["terms"])


@needs_vmhwm
def test_verify_16_in_bounded_memory():
    """verify 16 in its own process passes, and every check reads the maps'
    compressed matrices, never a d^3-sided basis: the process peaks near
    76 MB, under 100 MB (130 MB when each map cached one)."""
    code, out, kb = run_with_peak(CLI_SCRIPT, "verify", "16")
    assert code == EXIT_OK and kb < 100 * 1024, (code, kb)
    assert json.loads(out)["passed"] is True


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


def test_decompose_weights_beyond_the_float_range_exit_3(tmp_path, capsys):
    """A finite Hermitian 2 -> 2 map whose largest entry is 1.5e308: its
    weight c = lambda_max(Tr_out |J|) is 2.25e308. One error line that names
    c, no report."""
    path = _write(tmp_path, "big.json", 1.5e308 * np.diag([1.0, -1.0, 0.5, 0.0]))
    code = main(["decompose", path, "--din", "2", "--dout", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_SEMANTIC and captured.out == ""
    assert captured.err == (
        "error: the weight c = 1.2516040454103008 * 2^1024 is beyond the float range\n"
    )


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
        (["--din", "2", "--dout", "2", "--tol", "inf"], "--tol"),
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


def test_estimate_near_the_float_maximum_is_the_scaled_report(tmp_path, capsys):
    """A = 1e308 sigma_z, B = sigma_x on 1/2: the records reach 3e308, beyond
    the largest float, but the report does not. Each of its numbers is 2^1024
    times that of A 2^-1024, bit for bit."""
    rho = _write(tmp_path, "rho.json", MIXED2)
    b = _write(tmp_path, "b.json", SX)
    reports = []
    for k in (0, 1024):
        a = _write(tmp_path, "a.json", math.ldexp(1e308, -k) * np.diag([1.0, -1.0]))
        code, out = _run(capsys, ["estimate", rho, a, b])
        assert code == EXIT_OK
        reports.append(json.loads(out))
    big, unit = reports
    for key in ("estimate", "std_error", "exact"):
        assert big[key] == [math.ldexp(x, 1024) for x in unit[key]]


def test_estimate_results_beyond_the_float_range_exit_3(tmp_path, capsys):
    """A = B = 1e300 sigma_z on 1/2: Tr[A rho B] = 1e600 is beyond the largest
    float. One error line naming the estimate, no report and no NaN."""
    rho = _write(tmp_path, "rho.json", MIXED2)
    a = _write(tmp_path, "a.json", 1e300 * np.diag([1.0, -1.0]))
    code = main(["estimate", rho, a, a])
    captured = capsys.readouterr()
    assert code == EXIT_SEMANTIC
    assert captured.out == ""
    assert captured.err.startswith("error: the estimate (0.")
    assert captured.err.endswith(" * 2^1994 is beyond the float range\n")
    assert captured.err.count("\n") == 1


def _raise_on_constant(name):
    raise ValueError(f"{name} is not JSON")


def _main_report(argv):
    """main(argv)'s exit code and report. Exit 0 or 1 writes a report of
    finite numbers only, strict JSON; exit 2 or 3 writes nothing to standard
    output. No uncaught exception or RuntimeWarning may escape on the way (a
    RuntimeWarning is an error in this suite)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_PARSE, EXIT_SEMANTIC)
    if code in (EXIT_PARSE, EXIT_SEMANTIC):
        assert out.getvalue() == ""
        return code, None
    return code, json.loads(out.getvalue(), parse_constant=_raise_on_constant)


def _scaled_matrix(seed, n, kind, k):
    """A random n x n "state", "hermitian" or "general" matrix times 2^k;
    entries past the largest float are inf."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = {"state": g @ g.conj().T / np.trace(g @ g.conj().T).real,
         "hermitian": (g + g.conj().T) / 2, "general": g}[kind]
    with np.errstate(over="ignore"):
        return np.ldexp(np.ascontiguousarray(m).view(float), k).view(complex)


@st.composite
def _estimate_inputs(draw):
    """(rho, A, B): matrices of side 1-4 (mostly one shared side) times 2^k,
    k in [-1074, 1023] or 0. Each is a state, a Hermitian or a general
    matrix; rho is mostly an unscaled state, A and B mostly Hermitian.
    Entries past the largest float are written as JSON's Infinity, which the
    reader refuses."""
    side = draw(st.integers(1, 4))

    def matrix(kinds, scaled):
        n = draw(st.sampled_from([side] * 12 + [1, 2, 3, 4]))
        kind = draw(st.sampled_from(kinds))
        k = draw(st.integers(-1074, 1023)) if draw(scaled) else 0
        return _scaled_matrix(draw(st.integers(0, 2**32 - 1)), n, kind, k)

    return (matrix(["state"] * 7 + ["hermitian", "general"], st.sampled_from([1, 0, 0, 0])),
            *(matrix(["hermitian"] * 7 + ["state", "general"], st.booleans()) for _ in "ab"))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(inputs=_estimate_inputs(), shots=st.one_of(st.integers(2, 10**6), st.integers(-1, 2**64)),
       split=st.one_of(st.floats(0, 1, exclude_min=True, exclude_max=True), st.floats()),
       seed=st.integers(-1, 2**70))
@example(inputs=(MIXED2, 1e308 * np.eye(2), 1e-10 * SX), shots=1000, split=0.5, seed=42)
@example(inputs=(MIXED2, 1e308 * np.diag([1.0, -1.0]), SX), shots=1000, split=0.5, seed=42)
@example(inputs=(MIXED2, 2.0**1022 * np.diag([1.0, -1.0]), SX), shots=1000, split=0.5, seed=42)
@example(inputs=(MIXED2, 1e-320 * np.diag([1.0, -1.0]), SX), shots=1000, split=0.5, seed=42)
def test_estimate_finishes_or_fails_with_its_exit_code(tmp_path_factory, inputs, shots, split,
                                                       seed):
    """Any MatrixFiles and flags: exit 0 with a report of finite numbers
    only, or exit 2 or 3 with nothing on standard output (``_main_report``)."""
    tmp = tmp_path_factory.getbasetemp() / "estimate-property"
    tmp.mkdir(exist_ok=True)
    paths = []
    for name, m in zip(("rho", "a", "b"), inputs):
        (tmp / f"{name}.json").write_text(json.dumps(matrix_to_json(m)), encoding="utf-8")
        paths.append(str(tmp / f"{name}.json"))
    code, _ = _main_report(["estimate", *paths, f"--shots={shots}", f"--split={split!r}",
                            f"--seed={seed}"])
    assert code != EXIT_VERIFY_FAILED


@st.composite
def _decompose_inputs(draw):
    """(matrix, d_in, d_out): a process matrix whose side factors as
    d_out d_in <= 16, times 2^k: k is 0, in [-1074, 1023], or near either
    end of that range. It is a random Hermitian matrix, one with a few
    repeated eigenvalues (on a random eigenbasis or on the diagonal), a
    scaled identity or a general matrix."""
    d_in = draw(st.integers(1, 4))
    d_out = draw(st.integers(1, 16 // d_in))
    n = d_in * d_out
    kind = draw(st.sampled_from(["hermitian", "repeated", "diagonal", "identity", "general"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind in ("repeated", "diagonal"):
        w = rng.choice(rng.normal(size=draw(st.integers(1, 3))), size=n)
        u = np.linalg.qr(g)[0] if kind == "repeated" else np.eye(n)
        m = (u * w) @ u.conj().T
    else:
        m = {"hermitian": (g + g.conj().T) / 2, "identity": g[0, 0].real * np.eye(n),
             "general": g}[kind]
    k = draw(st.one_of(st.just(0), st.integers(-1074, 1023), st.integers(-1074, -1000),
                       st.integers(960, 1023)))
    with np.errstate(over="ignore"):
        m = np.ldexp(np.ascontiguousarray(m, dtype=complex).view(float), k).view(complex)
    return m, d_in, d_out


def _recombination_error(m, terms):
    """||sum_i lambda_i E_i - (m + m^dag)/2||_F over the rounding bound of
    ``statistical_decompose``: 1e-12 ||J||_F, plus the subnormal grid,
    2^-1074 for each of 4 n entries. Both are taken at the exact scaling of
    m by 2^-k that brings its largest entry to [1/2, 1), so neither
    overflows nor underflows."""
    m = np.asarray(m, dtype=complex)
    k = math.frexp(np.abs(m).max())[1]
    m = np.ldexp(m.view(float), -k).view(complex)
    lams = [math.ldexp(t["lambda"], -k) for t in terms]
    effects = [json_to_matrix(t["effect"]) for t in terms]
    h = (m + m.conj().T) / 2
    residual = np.linalg.norm(sum(lam * e for lam, e in zip(lams, effects)) - h)
    return residual / (1e-12 * np.linalg.norm(h) + math.ldexp(4 * len(m), -1074 - k))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(inputs=_decompose_inputs(),
       tol=st.one_of(st.sampled_from([None, None, "0", "1e-13", "1e-6"]), st.floats().map(repr)))
@example(inputs=(1.5e308 * np.eye(4), 4, 1), tol=None)
@example(inputs=(5e-324 * np.diag([1.0, 1.0, 2.0, 2.0]), 2, 2), tol=None)
@example(inputs=(1.5e308 * np.kron(np.eye(2), np.ones((2, 2))), 2, 2), tol=None)
def test_decompose_finishes_or_fails_with_its_exit_code(tmp_path_factory, inputs, tol):
    """Any process matrix of side d_out d_in <= 16, at any scale and --tol:
    exit 0 with a report of finite numbers only whose terms recombine the
    Hermitian part of the input within the bound of
    ``statistical_decompose``, or exit 2 or 3 with nothing on standard
    output (``_main_report``)."""
    m, d_in, d_out = inputs
    path = tmp_path_factory.getbasetemp() / "decompose-property.json"
    path.write_text(json.dumps(matrix_to_json(m)), encoding="utf-8")
    code, report = _main_report(["decompose", str(path), f"--din={d_in}", f"--dout={d_out}",
                                 *([] if tol is None else [f"--tol={tol}"])])
    assert code != EXIT_VERIFY_FAILED
    if code != EXIT_OK:
        return
    assert len(report["is_cp_flags"]) == len(report["terms"])
    assert len(report["terms"]) <= 3
    assert _recombination_error(m, report["terms"]) <= 1


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
    checks, _ = _verify_checks(d, None)
    assert [c["name"] for c in checks if not c["passed"]] == []


@pytest.mark.parametrize("d", range(2, 9))
def test_verify_checks_match_dense_reference(d):
    """Every residual, bound and flag equals the dense computation's; above
    d = 8 the d^3-sided eigendecompositions of the reference take seconds."""
    checks, _ = _verify_checks(d, None)
    want = dense_verify_values(d)
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
    checks, _ = _verify_checks(8, None)
    assert all(c["passed"] for c in checks)
    assert sides and max(sides) <= 8 * 8


def test_verify_keeps_only_compressed_matrices_in_memory():
    """No check builds the d^3 x 2r matrix [vec L | vec R] or its orthonormal
    basis for more than the bound's two parts, so the tracemalloc peak of the
    whole suite at d = 12 is about 10 MB (24 MB when every map cached Q)."""
    tracemalloc.start()
    try:
        checks, _ = _verify_checks(12, None)
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
    checks = {c["name"]: c for c in _verify_checks(3, None)[0]}
    assert checks["real_identity"]["residual"] > 0.1
    assert not checks["real_identity"]["passed"]


def test_verify_fails_two_point_identity_on_a_conjugated_imaginary_part(monkeypatch):
    """An imaginary part built with -i/2 for i/2 gives R + iI = T^dag, whose
    pairing with A (x) B is Tr[B rho A], not Tr[A rho B]; its distance from
    T is 3.5 at d = 2 and 90 at d = 16."""
    ideal_part = correlator._ideal_part
    monkeypatch.setattr(correlator, "_ideal_part", lambda d, c: ideal_part(d, np.conj(c)))
    checks = {c["name"]: c for c in _verify_checks(3, None)[0]}
    assert checks["two_point_identity"]["residual"] > 1
    assert not checks["two_point_identity"]["passed"]


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
    checks = {c["name"]: c for c in _verify_checks(d, None)[0]}
    assert checks["branch_probabilities"]["residual"] == pytest.approx(eps, rel=1e-4)
    assert not checks["branch_probabilities"]["passed"]
    assert not checks["real_saturation"]["passed"]


def test_verify_report_does_not_depend_on_seed(capsys):
    """Every check is exact over all inputs, so --seed changes only the
    report's seed field."""
    reports = []
    for seed in (0, 12345):
        code, out = _run(capsys, ["verify", "3", "--seed", str(seed)])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report.pop("seed") == seed
        reports.append(report)
    assert reports[0] == reports[1]


def test_verify_negative_seed_exits_3(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("checks ran before the seed was checked")

    monkeypatch.setattr(cli, "_verify_checks", must_not_run)
    code = main(["verify", "2", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == EXIT_SEMANTIC
    assert captured.out == ""
    assert captured.err == "error: --seed must be non-negative, got -1\n"


@pytest.mark.parametrize("d", ["1", "17"])
def test_verify_out_of_range_exits_3(capsys, d):
    code = main(["verify", d])
    capsys.readouterr()
    assert code == EXIT_SEMANTIC


def test_verify_impossible_tolerance_exits_1(capsys):
    code, out = _run(capsys, ["verify", "2", "--tol", "1e-30"])
    assert code == EXIT_VERIFY_FAILED
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_verify_bad_tolerance_exits_3(capsys, tol):
    code = main(["verify", "2", "--tol", tol])
    captured = capsys.readouterr()
    assert code == EXIT_SEMANTIC
    assert captured.out == ""
    assert captured.err.startswith("error: --tol must be")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(d=st.one_of(st.integers(2, 5), st.integers(-2**70, 2**70)),
       tol=st.one_of(st.none(), st.floats(0).map(repr), st.floats().map(repr)),
       seed=st.one_of(st.integers(0, 2**70), st.integers(-2**70, 2**70)))
@example(d=2, tol="inf", seed=42)
@example(d=16, tol="1e308", seed=2**64)
def test_verify_finishes_or_fails_with_its_exit_code(d, tol, seed):
    """Any dimension, --tol and --seed: exit 0 or 1 with a report of finite
    numbers only, or exit 2 or 3 with nothing on standard output
    (``_main_report``). Dimensions in range are kept to d <= 5 for speed."""
    code, report = _main_report(["verify", str(d), f"--seed={seed}",
                                 *([] if tol is None else [f"--tol={tol}"])])
    if code in (EXIT_OK, EXIT_VERIFY_FAILED):
        assert report["passed"] is (code == EXIT_OK)
        assert 2 <= d <= 16 and seed >= 0


def _read_stacks(path, d):
    """The (L, R) stacks of a ``verify --dump`` file of dimension d."""
    files = json.loads(path.read_text(encoding="utf-8"))
    return [json_to_matrix(files[side]).reshape(-1, d * d, d) for side in ("left", "right")]


def test_verify_dump_round_trips_family(tmp_path, capsys):
    """verify 6 --dump: each file holds its map's stacks, which rebuild its
    process matrix bit for bit."""
    dump = tmp_path / "mats"
    code, _ = _run(capsys, ["verify", "6", "--dump", str(dump)])
    assert code == EXIT_OK
    for name, j in choi_builders(CorrelatorFamily(6)).items():
        left, right = _read_stacks(dump / f"choi_{name}_d6.json", 6)
        rebuilt = ChoiOperator(None, d_in=6, d_out=36, kraus=left, right=right)
        assert np.array_equal(rebuilt.matrix, j.matrix)


def test_verify_dump_streams_each_file(tmp_path):
    """A dump file is written as it is formatted: the d = 12 real part's
    stacks, as verify --dump passes them, are 3.5 MB of text, and writing
    them peaks near 0.9 MB, under half of that. A writer that formats the
    whole file before writing it would hold all its text (7 MB)."""
    d, path = 12, tmp_path / "choi_real_d12.json"
    j = choi_builders(CorrelatorFamily(d))["real"]
    files = {side: {"rows": len(s) * s.shape[1], "cols": d, "data": s}
             for side, s in zip(("left", "right"), j.stacks)}
    tracemalloc.start()
    try:
        cli._write_report(files, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2, (peak, path.stat().st_size)
    left, right = _read_stacks(path, d)
    assert np.array_equal(left, j.stacks[0]) and np.array_equal(right, j.stacks[1])


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
    """A pure and a mixed qubit state: both coincidence patterns keep their
    state-independent probabilities 3/16 and 1/16."""
    for rho in (KET0, np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])):
        code, out = _run(capsys, ["experiment", _write(tmp_path, "rho.json", rho)])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["p_sym"] - 3 / 16) <= 1e-12
        assert abs(payload["p_anti"] - 1 / 16) <= 1e-12
        assert payload["recombination_residual"] <= 1e-10


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
    delta = 1e-6 * random_observable(rng, 4)
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
                (random_observable(rng, 2), random_observable(rng, 2)))
        assert abs(error(a, b)) <= residual


def test_experiment_rejects_non_qubit(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", np.eye(3, dtype=complex) / 3)
    code = main(["experiment", rho])
    capsys.readouterr()
    assert code == EXIT_SEMANTIC


@st.composite
def _experiment_states(draw):
    """A MatrixFile of side 1-3 (mostly 2) times 2^k, k in [-1074, 1023] or
    0: a state, a Hermitian or a general matrix, mostly an unscaled state."""
    n = draw(st.sampled_from([2] * 4 + [1, 3]))
    kind = draw(st.sampled_from(["state"] * 3 + ["hermitian", "general"]))
    k = draw(st.sampled_from([0, 0, 0, 1]) | st.integers(-1074, 1023))
    return _scaled_matrix(draw(st.integers(0, 2**32 - 1)), n, kind, k)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(rho=_experiment_states())
def test_experiment_finishes_or_fails_with_its_exit_code(tmp_path_factory, rho):
    """Any MatrixFile: exit 0 with a report of finite numbers only, or exit 2
    or 3 with nothing on standard output (``_main_report``)."""
    path = tmp_path_factory.getbasetemp() / "experiment-property.json"
    path.write_text(json.dumps(matrix_to_json(rho)), encoding="utf-8")
    code, report = _main_report(["experiment", str(path)])
    assert code != EXIT_VERIFY_FAILED
    if code == EXIT_OK:
        assert abs(report["p_sym"] - 3 / 16) <= 1e-12 and abs(report["p_anti"] - 1 / 16) <= 1e-12


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


def test_out_overwrites_an_existing_file(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", MIXED2)
    out_path = tmp_path / "result.json"
    out_path.write_text("old contents, longer than nothing\n" * 100, encoding="utf-8")
    code, out = _run(capsys, ["experiment", rho, "--out", str(out_path)])
    assert code == EXIT_OK and out == ""
    assert json.loads(out_path.read_text(encoding="utf-8"))["p_anti"] == pytest.approx(1 / 16)


def test_out_at_an_existing_directory_exits_3(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", MIXED2)
    code = main(["experiment", rho, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_SEMANTIC
    assert captured.out == ""
    assert captured.err == f"error: cannot write {tmp_path}\n"


@pytest.mark.parametrize(
    "target",
    ["out-in-missing-dir", "empty-out", "dump-on-a-file", "decompose-out-in-missing-dir"],
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
    elif target == "empty-out":
        argv = ["verify", "2", "--out", ""]
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
