"""End-to-end acceptance suite: one test per release criterion.

Run with ``pytest -v`` to get one pass/fail line per criterion. Each test
prints a compact residual summary for inspection with ``-s``.
"""

import time

import numpy as np

from twopoint.choi import (
    ChoiOperator,
    is_completely_positive,
    is_hermiticity_preserving,
    is_trace_preserving,
)
from twopoint.cli import _random_observable as rand_herm, _random_state as rand_state
from twopoint.correlator import (
    CorrelatorFamily,
    imag_part_apply,
    real_part_apply,
    two_point_exact,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from twopoint.decomposition import (
    decomposition_cost,
    error_lower_bound,
    partial_expectation,
    recombine,
    statistical_decompose,
    stinespring_dilation,
)
from twopoint.photonics import recombine_coincidences, simulate_optics
from twopoint.sampler import estimate_two_point

DIMS_FULL = range(2, 9)


def test_criterion_1_real_part_decomposition_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for d in DIMS_FULL:
        fam = CorrelatorFamily(d)
        combo = (d + 1) / 2 * fam.j_sym.matrix - (d - 1) / 2 * fam.j_anti.matrix
        worst = max(worst, float(np.linalg.norm(fam.j_real.matrix - combo)))
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: max Frobenius residual {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_2_imag_part_decomposition_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for d in DIMS_FULL:
        fam = CorrelatorFamily(d)
        combo = (
            np.sqrt(d * d - 1.0)
            / 2
            * (fam.j_phase_plus.matrix - fam.j_phase_minus.matrix)
        )
        worst = max(worst, float(np.linalg.norm(fam.j_imag.matrix - combo)))
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: max Frobenius residual {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_3_bound_values_and_saturation():
    rng = np.random.default_rng(3)
    bound_dev = sat_dev = prob_dev = 0.0
    for d in DIMS_FULL:
        fam = CorrelatorFamily(d)
        b_real = error_lower_bound(fam.j_real)
        b_imag = error_lower_bound(fam.j_imag)
        bound_dev = max(bound_dev, abs(b_real - d))
        bound_dev = max(bound_dev, abs(b_imag - np.sqrt(d * d - 1.0)))
        dec_real = universal_real_decomposition(d)
        dec_imag = universal_imag_decomposition(d)
        for _ in range(20):
            rho = rand_state(rng, d)
            for dec, bound in ((dec_real, b_real), (dec_imag, b_imag)):
                report = decomposition_cost(dec, rho, bound=bound)
                sat_dev = max(sat_dev, report.cost - report.bound)
                for p in report.probabilities:
                    prob_dev = max(prob_dev, abs(p - 0.5))
    print(
        f"criterion 3: bound dev {bound_dev:.3e}, saturation gap {sat_dev:.3e}, "
        f"probability dev {prob_dev:.3e}"
    )
    assert bound_dev <= 1e-9
    assert abs(sat_dev) <= 1e-9
    assert prob_dev <= 1e-10


def test_criterion_4_cp_tp_flags():
    for d in range(2, 6):
        fam = CorrelatorFamily(d)
        for j in (fam.j_sym, fam.j_anti, fam.j_phase_plus, fam.j_phase_minus):
            assert is_completely_positive(j)
            assert is_trace_preserving(j)
        ideal = ChoiOperator(
            fam.j_real.matrix - 1j * fam.j_imag.matrix, d_in=d, d_out=d * d
        )
        assert not is_hermiticity_preserving(ideal)
        assert not is_trace_preserving(fam.j_imag)
    print("criterion 4: all CP/TP/HP flags correct for d = 2..5")


def test_criterion_5_branch_orthogonality():
    worst_sym = worst_phase = 0.0
    for d in DIMS_FULL:
        fam = CorrelatorFamily(d)
        worst_sym = max(
            worst_sym, abs(np.trace(fam.j_sym.matrix @ fam.j_anti.matrix))
        )
        worst_phase = max(
            worst_phase,
            abs(np.trace(fam.j_phase_plus.matrix @ fam.j_phase_minus.matrix)),
        )
    print(
        f"criterion 5: |Tr[J+ J-]| exchange {worst_sym:.3e}, "
        f"phase {worst_phase:.3e}"
    )
    assert worst_phase <= 1e-10
    assert worst_sym <= 1e-12


def test_criterion_6_dilation_reproduces_both_parts():
    rng = np.random.default_rng(6)
    worst_iso = worst_map = 0.0
    for d in (2, 3):
        fam = CorrelatorFamily(d)
        cases = (
            (universal_real_decomposition(d), lambda m: real_part_apply(fam, m)),
            (universal_imag_decomposition(d), lambda m: imag_part_apply(fam, m)),
        )
        for dec, direct in cases:
            dil = stinespring_dilation(dec)
            gram = dil.isometry.conj().T @ dil.isometry
            worst_iso = max(
                worst_iso, float(np.linalg.norm(gram - np.eye(d)))
            )
            for _ in range(10):
                rho = rand_state(rng, d)
                got = partial_expectation(dil, rho)
                worst_map = max(
                    worst_map, float(np.linalg.norm(got - direct(rho)))
                )
    print(
        f"criterion 6: isometry residual {worst_iso:.3e}, "
        f"map residual {worst_map:.3e}"
    )
    assert worst_iso <= 1e-10
    assert worst_map <= 1e-10


def test_criterion_7_unbiased_estimation_budgeted():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    good = 0
    for trial in range(20):
        rho = rand_state(rng, 2)
        a = rand_herm(rng, 2)
        b = rand_herm(rng, 2)
        report = estimate_two_point(rho, a, b, n_shots=200_000, seed=1000 + trial)
        exact = two_point_exact(rho, a, b)
        ok_re = abs(report.estimate.real - exact.real) <= 5 * report.std_error[0]
        ok_im = abs(report.estimate.imag - exact.imag) <= 5 * report.std_error[1]
        good += ok_re and ok_im
    elapsed = time.perf_counter() - t0
    print(f"criterion 7: {good}/20 triples within 5 sigma, {elapsed:.1f}s")
    assert good >= 19
    assert elapsed < 60.0


def test_criterion_8_optics_probabilities_and_recombination():
    rng = np.random.default_rng(8)
    p_dev = 0.0
    for _ in range(20):
        stats = simulate_optics(rand_state(rng, 2))
        p_dev = max(p_dev, abs(stats.p_sym - 3 / 16), abs(stats.p_anti - 1 / 16))
    rec_dev = 0.0
    for _ in range(20):
        rho = rand_state(rng, 2)
        a = rand_herm(rng, 2)
        b = rand_herm(rng, 2)
        stats = simulate_optics(rho)
        got = recombine_coincidences(stats, a, b)
        want = np.trace(rho @ (a @ b + b @ a)).real / 2
        rec_dev = max(rec_dev, abs(got - want))
    print(
        f"criterion 8: pattern probability dev {p_dev:.3e}, "
        f"recombination residual {rec_dev:.3e}"
    )
    assert p_dev <= 1e-10
    assert rec_dev <= 1e-9


def test_criterion_9_general_decomposition_machinery():
    rng = np.random.default_rng(9)
    rec_dev = 0.0
    min_gap = np.inf
    for trial in range(50):
        d = 2 if trial % 2 == 0 else 3
        g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        j = ChoiOperator((g + g.conj().T) / 2, d_in=d, d_out=d)
        dec = statistical_decompose(j)
        # valid instrument: CP effects whose unweighted sum is trace preserving
        assert all(is_completely_positive(eff) for eff in dec.effects)
        total = ChoiOperator(
            sum(eff.matrix for eff in dec.effects), d_in=d, d_out=d
        )
        assert is_trace_preserving(total)
        rec_dev = max(
            rec_dev, float(np.linalg.norm(recombine(dec).matrix - j.matrix))
        )
        bound = error_lower_bound(j)
        for _ in range(20):
            rho = rand_state(rng, d)
            report = decomposition_cost(dec, rho, bound=bound)
            min_gap = min(min_gap, report.cost - report.bound)
    print(
        f"criterion 9: recombination residual {rec_dev:.3e}, "
        f"worst cost-bound gap {min_gap:.3e}"
    )
    assert rec_dev <= 1e-10
    assert min_gap >= -1e-9
