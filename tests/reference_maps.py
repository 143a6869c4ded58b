"""Independent references that the tests compare the package against.

Each map is built from its defining formula with dense two-copy operators,
never from the package's operator stacks or cached process matrices, so a test
that compares the two checks one construction against another. The check
suite of ``twopoint verify`` has a dense counterpart here too, which works on
d^3-sided process matrices where the package works on their factors, and
the sampler's plan has one that measures the dense conditional two-copy state
of each branch with dense spectral projectors. The terms of
``statistical_decompose`` are compared with the eigenprojectors of a process
matrix, interpolated from its distinct eigenvalues. The optical bench has one
that propagates sparse Fock-space vectors through each beamsplitter, where
the package uses one fixed Kraus operator per coincidence pattern. The random
inputs that only the tests use (full-rank, pure and rank-two states,
Hermitian and two-valued observables) live here too.
"""

import itertools
from collections import Counter
from math import factorial, sqrt

import numpy as np

from twopoint.choi import ChoiOperator, apply_choi
from twopoint.correlator import (
    CorrelatorFamily,
    universal_imag_decomposition,
    universal_real_decomposition,
)
from twopoint.linalg import (
    BRANCH_FLOOR,
    HERM_TOL,
    PSD_TOL,
    TP_TOL,
    check_density_matrix,
    check_observable,
    eigenvalue_clusters,
    hermitian_eigendecomposition,
    swap_operator,
)


def partial_trace(m, keep, dims):
    """Factor ``keep`` (0 or 1) of the matrix m on a bipartite space of
    dims (d_0, d_1), the other factor traced out."""
    t = np.asarray(m).reshape(dims[0], dims[1], dims[0], dims[1])
    return np.einsum("iaja->ij" if keep == 0 else "aiaj->ij", t)


def maximally_entangled_projector(d):
    """Rank-1 projector onto d^-1/2 sum_i |i,i>; both marginals are 1/d."""
    vec = np.eye(d, dtype=complex).reshape(d * d) / np.sqrt(d)
    return np.outer(vec, vec.conj())


def ideal_correlator_apply(fam, rho):
    """S (1 (x) rho): the unphysical map whose pairing with A (x) B gives
    Tr[A rho B]."""
    return swap_operator(fam.d) @ np.kron(np.eye(fam.d), rho)


def sector_projector(d, sign):
    """(1 ± S)/2: the projector onto the exchange-symmetric (+1) or
    -antisymmetric (-1) subspace of two d-dimensional copies."""
    return (np.eye(d * d) + sign * swap_operator(d)) / 2


def q_operator(d, sign):
    """(1 + zS)/2 with z = (-1 + i sqrt(d^2-1))/d for sign = +1, its adjoint
    (1 + conj(z) S)/2 for sign = -1."""
    z = complex(-1.0, sign * sqrt(d * d - 1)) / d
    return (np.eye(d * d) + z * swap_operator(d)) / 2


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


# --- the optical bench as sparse Fock-space vectors ------------------------------
#
# A state is a creation-operator polynomial: a dict mapping a sorted tuple of
# occupied (spatial, polarization) modes to the monomial's complex amplitude.
# The squared norm of a monomial is the product of factorials of its mode
# multiplicities.

# One occupied mode: (spatial label, polarization bit).
Mode = tuple[str, int]
# Sparse 3-photon vector: sorted mode multiset -> amplitude.
FockVector = dict[tuple[Mode, ...], complex]

# Amplitudes of modulus at most FOCK_CUTOFF are dropped from a vector.
FOCK_CUTOFF = 1e-15

# Complete spatial occupation profiles of the two accepted coincidence
# patterns, and the order in which the detected polarizations enter the
# (pair x reference) state.
SYM_PROFILE = ("e", "f", "r")
ANTI_PROFILE = ("c", "e", "r")


def _substitute(state: FockVector, table) -> FockVector:
    """Expand each creation operator through a linear substitution table."""
    out: FockVector = {}
    for key, amp in state.items():
        options = [table.get(m, ((m, 1.0),)) for m in key]
        for combo in itertools.product(*options):
            coeff = amp
            modes = []
            for mode, c in combo:
                coeff = coeff * c
                modes.append(mode)
            k2 = tuple(sorted(modes))
            prev = out.get(k2, 0j)
            out[k2] = prev + coeff
    return {k: v for k, v in out.items() if abs(v) > FOCK_CUTOFF}


def beamsplitter_action(
    state: FockVector, mode_pair: tuple[str, str], transmissivity: float
) -> FockVector:
    """Mix two spatial modes, polarization by polarization.

    With transmissivity t, the first mode's creation operator maps to
    sqrt(t)*first + sqrt(1-t)*second and the second's to
    sqrt(1-t)*first - sqrt(t)*second; photon number is conserved and the
    vector norm is preserved. Either input port may be vacuum.
    """
    s1, s2 = mode_pair
    if not (isinstance(s1, str) and isinstance(s2, str)) or s1 == s2:
        raise ValueError(f"invalid mode labels for beamsplitter: {mode_pair!r}")
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity {transmissivity} outside [0, 1]")
    ct = sqrt(transmissivity)
    cr = sqrt(1.0 - transmissivity)
    table = {}
    for p in (0, 1):
        table[(s1, p)] = (((s1, p), ct), ((s2, p), cr))
        table[(s2, p)] = (((s1, p), cr), ((s2, p), -ct))
    return _substitute(state, table)


def _relabel(state: FockVector, old: str, new: str) -> FockVector:
    out: FockVector = {}
    for key, amp in state.items():
        if any(s == new for s, _ in key):
            raise ValueError(f"relabel target {new!r} already occupied")
        k2 = tuple(sorted((new if s == old else s, p) for s, p in key))
        out[k2] = amp
    return out


def _pure_pipeline(psi: np.ndarray) -> FockVector:
    """Propagate one pure polarization input through the whole bench."""
    state: FockVector = {}
    for p in (0, 1):
        if abs(psi[p]) <= FOCK_CUTOFF:
            continue
        for q in (0, 1):
            key = tuple(sorted((("a", p), ("b", q), ("r", q))))
            state[key] = state.get(key, 0j) + psi[p] / sqrt(2.0)
    state = beamsplitter_action(state, ("a", "b"), 0.5)
    state = _relabel(state, "a", "c")
    state = _relabel(state, "b", "d")
    state = beamsplitter_action(state, ("d", "f"), 0.5)
    state = _relabel(state, "d", "e")
    state = beamsplitter_action(state, ("c", "h"), 0.5)
    return state


def _profile_vector(state: FockVector, profile: tuple[str, str, str]) -> np.ndarray:
    """Post-select on a complete spatial profile with all-distinct modes and
    return the 8-component polarization amplitude vector, ordered
    (first detected, second detected, reference)."""
    vec = np.zeros(8, dtype=complex)
    want = tuple(sorted(profile))
    for key, amp in state.items():
        if tuple(sorted(s for s, _ in key)) != want:
            continue
        pol = {s: p for s, p in key}
        idx = (pol[profile[0]] << 2) | (pol[profile[1]] << 1) | pol[profile[2]]
        vec[idx] = amp
    return vec


def _bench_outputs(rho: np.ndarray) -> list[tuple[float, FockVector]]:
    """Run the bench on each eigenvector of a polarization-qubit state.

    Returns (eigenvalue, output vector) pairs for all eigenvalues; the output
    state is their eigenvalue-weighted mixture, linear in rho.
    """
    rho = check_density_matrix(rho)
    if rho.shape != (2, 2):
        raise ValueError(
            f"input photon must be a polarization qubit, got side {rho.shape[0]}"
        )
    w, v = hermitian_eigendecomposition(rho)
    return [(w[k], _pure_pipeline(v[:, k])) for k in range(w.size)]


def fock_post_selected(rho):
    """The unnormalised 8x8 post-selected states (symmetric, antisymmetric)
    on (detected pair) x (reference) of the bench run on a qubit state."""
    out = []
    for profile in (SYM_PROFILE, ANTI_PROFILE):
        acc = np.zeros((8, 8), dtype=complex)
        for weight, state in _bench_outputs(rho):
            vec = _profile_vector(state, profile)
            acc += weight * np.outer(vec, vec.conj())
        out.append(acc)
    return tuple(out)


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


def dense_verify_values(d):
    """The residual of every ``twopoint verify d`` check, computed on dense
    process matrices: eigendecompositions of d^3-sided matrices, partial
    traces and matrix sums. The real and imaginary parts are placed index by
    index, and so is the process matrix of the two-point map T read off
    Tr[E_lk rho E_nm] = rho_kn delta_ml; the branches and effects are the
    matrices of their Kraus stacks, and the branch probabilities are the
    partial traces of the effects' matrices."""
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

    def marginal(eff):  # p(rho) = Tr[M^T rho]
        return partial_trace(eff.matrix, keep=1, dims=[d * d, d])

    b_real, b_imag = bound(real), bound(imag)
    values = {
        "real_identity": np.linalg.norm(real - recombined(dec_real)),
        "imag_identity": np.linalg.norm(imag - recombined(dec_imag)),
        "real_bound_value": abs(b_real - d),
        "imag_bound_value": abs(b_imag - np.sqrt(d * d - 1.0)),
    }
    # worst cases over every state: spectral norms, from singular values
    for part, dec, b in (("real", dec_real, b_real), ("imag", dec_imag, b_imag)):
        cost = sum(abs(lam) * marginal(eff) for lam, eff in zip(dec.weights, dec.effects))
        values[f"{part}_saturation"] = np.linalg.norm(cost - b * np.eye(d), 2)
    values["branch_probabilities"] = max(
        np.linalg.norm(marginal(eff) - np.eye(d) / 2, 2)
        for eff in dec_real.effects + dec_imag.effects
    )
    values["orthogonality_sym"] = abs(np.sum(branches[0] * branches[1].T))
    values["orthogonality_phase"] = abs(np.sum(branches[2] * branches[3].T))
    total = real - 1j * imag
    flags = all(cp(m) and tp(m) for m in branches)
    flags = flags and np.linalg.norm(total - total.conj().T) > HERM_TOL * np.linalg.norm(total)
    flags = flags and not tp(imag)
    values["cp_tp_flags"] = 0.0 if flags else 1.0
    # J_T[(k,m,i),(l,n,j)] = delta_ki delta_nj delta_ml
    one = np.eye(d)
    j_t = np.einsum("ki,nj,ml->kmilnj", one, one, one).reshape(d**3, d**3)
    values["two_point_identity"] = np.linalg.norm(real - 1j * imag - j_t)
    return values


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank density matrix G G^dag / Tr[G G^dag] from a complex Gaussian
    G (real parts drawn first, then imaginary parts)."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_observable(rng: np.random.Generator, d: int) -> np.ndarray:
    """Hermitian observable (G + G^dag) / 2, G drawn as in random_state."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


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


def eigenprojectors(m: np.ndarray, values) -> list[np.ndarray]:
    """The eigenprojectors of a Hermitian matrix ``m`` whose distinct
    eigenvalues are exactly ``values``, by Lagrange interpolation:
    P_i = prod_{j != i} (m - mu_j 1) / (mu_i - mu_j), one per value in the
    given order. No eigenvector is formed, so no basis or phase is chosen."""
    one = np.eye(len(m))
    projs = []
    for i, mu_i in enumerate(values):
        p = one
        for j, mu_j in enumerate(values):
            if j != i:
                p = p @ (m - mu_j * one) / (mu_i - mu_j)
        projs.append(p)
    return projs


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
