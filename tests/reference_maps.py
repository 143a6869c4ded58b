"""Independent references that the tests compare the package against.

Each map is built from its defining formula with dense two-copy operators,
never from the package's operator stacks or cached process matrices, so a test
that compares the two checks one construction against another. The check
suite of ``twopoint verify`` has a dense counterpart here too, which works on
d^3-sided process matrices where the package works on their factors, and
the sampler's plan has one that measures the dense conditional two-copy state
of each branch with dense spectral projectors. The random inputs that only
the tests use (pure and rank-two states, two-valued observables) live here
too.
"""

from collections import Counter
from math import factorial

import numpy as np

from twopoint.choi import ChoiOperator, apply_choi
from twopoint.cli import _random_observable, _random_state
from twopoint.correlator import (
    CorrelatorFamily,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from twopoint.decomposition import decomposition_cost
from twopoint.linalg import (
    BRANCH_FLOOR,
    HERM_TOL,
    PSD_TOL,
    TP_TOL,
    check_observable,
    eigenvalue_clusters,
    hermitian_eigendecomposition,
    partial_trace,
    q_operator,
    sector_projector,
    swap_operator,
)
from twopoint.photonics import _bench_outputs


def maximally_entangled_projector(d):
    """Rank-1 projector onto d^-1/2 sum_i |i,i>; both marginals are 1/d."""
    vec = np.eye(d, dtype=complex).reshape(d * d) / np.sqrt(d)
    return np.outer(vec, vec.conj())


def ideal_correlator_apply(fam, rho):
    """S (1 (x) rho): the unphysical map whose pairing with A (x) B gives
    Tr[A rho B]."""
    return swap_operator(fam.d) @ np.kron(np.eye(fam.d), rho)


def cloner_apply(fam, sign, rho):
    """The two-copy channel 2/(d±1) P± (1 (x) rho) P±."""
    p = sector_projector(fam.d, sign)
    return (2 / (fam.d + sign)) * (p @ np.kron(np.eye(fam.d), rho) @ p)


def rootswap_apply(fam, sign, rho):
    """The two-copy channel 2d/(d^2-1) Q± (1 (x) rho) Q∓."""
    q, qdag = q_operator(fam.d, sign), q_operator(fam.d, -sign)
    return (2 * fam.d / (fam.d**2 - 1)) * (q @ np.kron(np.eye(fam.d), rho) @ qdag)


def choi_of_action(action, d_in, d_out):
    """The process matrix sum_{ij} L(|i><j|) (x) |i><j| of a linear map L given
    as a callback, accumulated from its action on the matrix units."""
    jm = np.zeros((d_out * d_in, d_out * d_in), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[i, j] = 1.0
            jm += np.kron(np.asarray(action(unit.copy()), dtype=complex), unit)
    return ChoiOperator(jm, d_in=d_in, d_out=d_out)


def fock_norm_squared(state):
    """<v|v> of a sparse Fock vector, with bosonic multiplicity factors."""
    total = 0.0
    for key, amp in state.items():
        mult = 1
        for n in Counter(key).values():
            mult *= factorial(n)
        total += (amp * amp.conjugate()).real * mult
    return total


def pattern_probabilities(rho):
    """Probability of every spatial occupation profile of the optical bench;
    the values sum to 1."""
    table = {}
    for weight, state in _bench_outputs(rho):
        for key, amp in state.items():
            profile = tuple(sorted(s for s, _ in key))
            table[profile] = table.get(profile, 0.0) + weight * fock_norm_squared({key: amp})
    return table


def ideal_part_matrix(d, c):
    """c X + conj(c) X^T as a dense d^3-sided matrix, X the process matrix of
    S (1 (x) rho), placed index by index: S (1 (x) |i><j|) is
    sum_a |i,a><a,j|, so X has a 1 at row (i,a,i), column (a,j,j)."""
    i, a, j = np.indices((d, d, d)).reshape(3, -1)
    rows, cols = (i * d + a) * d + i, (a * d + j) * d + j
    m = np.zeros((d**3, d**3), dtype=complex)
    m[rows, cols] = c
    m[cols, rows] += np.conj(c)  # (row, col) pairs are distinct within X
    return m


def dense_verify_values(d, seed):
    """The residual of every ``twopoint verify d`` check, computed on dense
    process matrices: eigendecompositions of d^3-sided matrices, partial
    traces and matrix sums. The real and imaginary parts are placed index by
    index; the branches and effects are the matrices of their Kraus stacks,
    and the branch probabilities act through those stacks."""
    fam = CorrelatorFamily(d)
    real, imag = ideal_part_matrix(d, 0.5), ideal_part_matrix(d, 0.5j)
    branches = [getattr(fam, f"j_{k}").matrix for k in ("sym", "anti", "phase_plus", "phase_minus")]
    dec_real, dec_imag = universal_real_decomposition(d), universal_imag_decomposition(d)

    def recombined(dec):
        return sum(lam * eff.matrix for lam, eff in zip(dec.weights, dec.effects))

    def bound(m):
        w, v = np.linalg.eigh(m)
        absm = (v * np.abs(w)) @ v.conj().T
        return np.linalg.eigvalsh(partial_trace(absm, keep=1, dims=[d * d, d])).min()

    def tp(m):
        reduced = partial_trace(m, keep=1, dims=[d * d, d])
        return np.linalg.norm(reduced - np.eye(d)) <= TP_TOL * np.sqrt(d)

    def cp(m):
        norm = np.linalg.norm(m)
        return (
            np.linalg.norm(m - m.conj().T) <= HERM_TOL * norm
            and np.linalg.eigvalsh((m + m.conj().T) / 2).min() >= -PSD_TOL * norm
        )

    b_real, b_imag = bound(real), bound(imag)
    values = {
        "real_identity": np.linalg.norm(real - recombined(dec_real)),
        "imag_identity": np.linalg.norm(imag - recombined(dec_imag)),
        "real_bound_value": abs(b_real - d),
        "imag_bound_value": abs(b_imag - np.sqrt(d * d - 1.0)),
    }
    rng = np.random.default_rng(seed)
    sat_real = sat_imag = prob_dev = 0.0
    for _ in range(20):
        rho = _random_state(rng, d)
        cr = decomposition_cost(dec_real, rho, bound=b_real)
        ci = decomposition_cost(dec_imag, rho, bound=b_imag)
        sat_real = max(sat_real, abs(cr.cost - b_real))
        sat_imag = max(sat_imag, abs(ci.cost - b_imag))
        prob_dev = max([prob_dev] + [abs(p - 0.5) for p in cr.probabilities + ci.probabilities])
    values["real_saturation"] = sat_real
    values["imag_saturation"] = sat_imag
    values["branch_probabilities"] = prob_dev
    values["orthogonality_sym"] = abs(np.sum(branches[0] * branches[1].T))
    values["orthogonality_phase"] = abs(np.sum(branches[2] * branches[3].T))
    total = real - 1j * imag
    flags = all(cp(m) and tp(m) for m in branches)
    flags = flags and np.linalg.norm(total - total.conj().T) > HERM_TOL * np.linalg.norm(total)
    flags = flags and not tp(imag)
    values["cp_tp_flags"] = 0.0 if flags else 1.0
    two_point_dev = 0.0
    for _ in range(5):
        rho, a, b = _random_state(rng, d), _random_observable(rng, d), _random_observable(rng, d)
        got = np.trace(ideal_correlator_apply(fam, rho) @ np.kron(a, b))
        two_point_dev = max(two_point_dev, abs(got - np.trace(a @ rho @ b)))
    values["two_point_identity"] = two_point_dev
    return values


def pure_state(rng, d):
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def rank_two_state(rng, d):
    """A mixed state of rank 2 (pure at d = 2)."""
    v, _ = np.linalg.qr(rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2)))
    return (v * rng.dirichlet([1.0, 1.0])) @ v.conj().T


def two_valued_observable(rng, d):
    """A random observable with the two degenerate eigenvalues -1 and +1."""
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return u @ np.diag([1.0] * (d // 2) + [-1.0] * (d - d // 2)) @ u.conj().T


def spectral_projectors(obs: np.ndarray):
    """Grouped eigendecomposition of a Hermitian observable.

    Returns ``(values, projectors)`` where eigenvalues with gaps <=
    DEGENERACY_TOL times the largest modulus are merged into one outcome
    whose value is the group mean and whose projector spans the group's
    eigenvectors.
    """
    obs = check_observable(obs)
    w, v = hermitian_eigendecomposition(obs)
    values: list[float] = []
    projs: list[np.ndarray] = []
    for start, size in zip(*eigenvalue_clusters(w)):
        block = v[:, start:start + size]
        values.append(float(np.mean(w[start:start + size])))
        projs.append(block @ block.conj().T)
    return values, projs


def _joint_distribution(state2: np.ndarray, aspec, bspec):
    """Outcome values and Born probabilities of measuring A and B on the two
    halves of a two-copy state; ``aspec`` and ``bspec`` are the
    ``(values, projectors)`` pairs of ``spectral_projectors``."""
    (avals, aprojs), (bvals, bprojs) = aspec, bspec
    aprojs, bprojs = np.array(aprojs), np.array(bprojs)
    da, db = aprojs.shape[1], bprojs.shape[1]
    d2 = state2.shape[0]
    if state2.shape != (d2, d2) or d2 != da * db:
        raise ValueError(
            f"two-copy state side {state2.shape[0]} does not match observable "
            f"dimensions {da}x{db}"
        )
    pairs = [(av, bv) for av in avals for bv in bvals]
    # Tr[state2 (P_alpha (x) P_beta)] for all pairs at once: with state2 as
    # s[i, j, k, l] (row (i, j), column (k, l)), contract i, k with P_alpha[k, i]
    # and then j, l with P_beta[l, j].
    s = state2.reshape(da, db, da, db)
    t = np.tensordot(s, aprojs, axes=([0, 2], [2, 1]))
    born = np.tensordot(t, bprojs, axes=([0, 1], [2, 1]))
    q = np.maximum(born.real.ravel(), 0.0)
    total = q.sum()
    if total <= 0:
        raise ValueError("conditional state has no outcome support")
    return pairs, q / total


def assert_plans_agree(plan, ref, tol=1e-12):
    """Two ``(cell_probs, values)`` plans have the same cells: the cell
    probabilities agree within ``tol`` and the recorded values within
    ``tol`` relative to the largest of them (the outcome values are cluster
    means, whose last bits depend on the order of summation)."""
    (probs, values), (ref_probs, ref_values) = plan, ref
    assert probs.shape == ref_probs.shape and values.shape == ref_values.shape
    assert np.abs(probs - ref_probs).max() <= tol
    assert np.abs(values - ref_values).max() <= tol * max(1.0, np.abs(ref_values).max())


def reference_plan(decomp, rho, a, b):
    """``(cell_probs, values)`` of the sampler's plan, built from each
    branch's conditional two-copy state ``apply_choi(effect, rho) / p`` and
    the dense projector stacks of ``spectral_projectors``. Branches with
    p <= BRANCH_FLOOR are dropped and the rest's probabilities normalised."""
    aspec, bspec = spectral_projectors(a), spectral_projectors(b)
    probs, born, values = [], [], []
    for lam, eff in zip(decomp.weights, decomp.effects):
        out = apply_choi(eff, rho)
        p = float(np.trace(out).real)
        if p > BRANCH_FLOOR:
            pairs, q = _joint_distribution(out / p, aspec, bspec)
            probs.append(p)
            born.append(q)
            values.append([lam * av * bv for av, bv in pairs])
    total = sum(probs)
    return np.concatenate([p / total * q for p, q in zip(probs, born)]), np.array(values)
