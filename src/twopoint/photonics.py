"""Exact three-photon linear-optics model of the two-copy symmetric and
antisymmetric instrument branches on polarization qubits.

Layout
------

Three photons over labeled spatial modes, each carrying a polarization qubit
(0 or 1):

* the input photon enters mode ``a`` with polarization state rho;
* a downconversion source emits a polarization-maximally-entangled pair
  across modes ``b`` and ``r``; the ``r`` photon is the undetected reference;
* a 50/50 beamsplitter interferes ``a`` with ``b`` (outputs relabeled
  ``c``, ``d``);
* a second 50/50 beamsplitter splits ``d`` into ``e`` and ``f``;
* a balanced tap splits ``c`` into a monitored port (kept as ``c``) and an
  unmonitored port ``h``.

Detectors sit on ``c``, ``e`` and ``f``. Two coincidence patterns are kept:

* symmetric pattern — one photon in ``e`` and one in ``f`` (reference in
  ``r``): probability 3/16 for every input state, and the detected pair is
  the symmetric-subspace sandwich of (identity x rho);
* antisymmetric pattern — one photon in ``c`` and one in ``e``: probability
  1/16 for every input state, and the detected pair is the antisymmetric
  sandwich (for qubits, the singlet).

Recombining the two post-selected branch statistics with weights +3/2 and
-1/2 reproduces the two-copy expectation Tr[rho {A, B}] / 2 exactly.

States are sparse creation-operator polynomials: a dict mapping a sorted
tuple of occupied (spatial, polarization) modes to the monomial's complex
amplitude. The squared norm of a monomial is the product of factorials of
its mode multiplicities. Everything here is an exact amplitude computation;
no sampling is involved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .linalg import check_density_matrix, check_observable, hermitian_eigendecomposition, partial_trace

# One occupied mode: (spatial label, polarization bit).
Mode = tuple[str, int]
# Sparse 3-photon vector: sorted mode multiset -> amplitude.
FockVector = dict[tuple[Mode, ...], complex]

_AMP_CUTOFF = 1e-15

# Complete spatial occupation profiles of the two accepted coincidence
# patterns, and the order in which the detected polarizations enter the
# returned (pair x reference) state.
_SYM_PROFILE = ("e", "f", "r")
_ANTI_PROFILE = ("c", "e", "r")


@dataclass(frozen=True, eq=False)
class CoincidenceStats:
    """Probabilities and post-selected states of the two accepted patterns.

    ``state_sym`` / ``state_anti`` are 8x8 density matrices on
    (detected pair) x (reference qubit), row-major with the first detected
    polarization slowest.
    """

    p_sym: float
    p_anti: float
    state_sym: np.ndarray
    state_anti: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.p_anti <= self.p_sym <= 1.0:
            raise ValueError(
                f"coincidence probabilities out of order: "
                f"p_anti={self.p_anti}, p_sym={self.p_sym}"
            )


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
    return {k: v for k, v in out.items() if abs(v) > _AMP_CUTOFF}


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
        if abs(psi[p]) <= _AMP_CUTOFF:
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

    Returns (eigenvalue, output vector) pairs for the eigenvalues above
    1e-12; the output state is their eigenvalue-weighted mixture.
    """
    rho = check_density_matrix(rho)
    if rho.shape != (2, 2):
        raise ValueError(
            f"input photon must be a polarization qubit, got side {rho.shape[0]}"
        )
    w, v = hermitian_eigendecomposition(rho)
    return [(w[k], _pure_pipeline(v[:, k])) for k in range(w.size) if w[k] > 1e-12]


def simulate_optics(rho: np.ndarray) -> CoincidenceStats:
    """Run the bench on a qubit state and post-select the two patterns.

    Returns the exact pattern probabilities (state-independent: 3/16 and
    1/16) and the normalized post-selected states on detected pair x
    reference.
    """
    sym_acc = np.zeros((8, 8), dtype=complex)
    anti_acc = np.zeros((8, 8), dtype=complex)
    for weight, state in _bench_outputs(rho):
        vs = _profile_vector(state, _SYM_PROFILE)
        va = _profile_vector(state, _ANTI_PROFILE)
        sym_acc += weight * np.outer(vs, vs.conj())
        anti_acc += weight * np.outer(va, va.conj())
    p_sym = float(np.trace(sym_acc).real)
    p_anti = float(np.trace(anti_acc).real)
    return CoincidenceStats(
        p_sym=p_sym,
        p_anti=p_anti,
        state_sym=sym_acc / p_sym,
        state_anti=anti_acc / p_anti,
    )


def recombine_coincidences(
    stats: CoincidenceStats, a: np.ndarray, b: np.ndarray
) -> float:
    """Weighted two-copy expectation +3/2 <A x B>_sym - 1/2 <A x B>_anti.

    Equals Tr[rho (AB + BA)] / 2 for the input state the stats came from.
    The reference qubit is traced out: it is only classically correlated
    with the detected pair, so it does not affect this expectation.
    """
    a = check_observable(a)
    b = check_observable(b)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("observables must act on polarization qubits")
    ab = np.kron(a, b)
    pair_sym = partial_trace(stats.state_sym, (0, 1), [2, 2, 2])
    pair_anti = partial_trace(stats.state_anti, (0, 1), [2, 2, 2])
    val_sym = float(np.trace(pair_sym @ ab).real)
    val_anti = float(np.trace(pair_anti @ ab).real)
    return 1.5 * val_sym - 0.5 * val_anti
