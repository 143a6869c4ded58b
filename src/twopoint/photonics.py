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
-1/2, half the real-part weights of ``correlator.universal_branches(2)``,
reproduces the two-copy expectation Tr[rho {A, B}] / 2 exactly.

The beamsplitters act on spatial modes only, and each kept pattern puts its
photons in distinct modes x and y, so its amplitudes are 2x2 permanents of
the splitters' real 4x4 mode matrix U (the two-photon permanent formula of
linear optics): M = U[x,a] U[y,b] 1 + U[y,a] U[x,b] S on the polarizations
of the photons from a and b, S the swap. Each pattern is the fixed 8x2 Kraus
operator K = (M (x) 1_r)(1_a (x) |Phi+>_br); its unnormalised post-selected
state is K rho K^dag, exact and linear in rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlator import universal_branches
from .linalg import check_density_matrix, check_observable, partial_trace, swap_operator


def _pattern_kraus(x: int, y: int) -> np.ndarray:
    """K of the pattern with one photon in each of the output modes x != y.

    U[x, y] is the amplitude of a photon entering mode y to leave in mode x,
    over (a, b, f, h) in and (c, e, f, h) out: the splitters on (a, b), (d, f)
    and (c, h) in turn, each taking its first mode to (first + second)/sqrt(2)
    and its second to (first - second)/sqrt(2)."""
    u = np.eye(4)
    for i, j in ((0, 1), (1, 2), (0, 3)):
        bs = np.eye(4)
        bs[np.ix_((i, j), (i, j))] = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        u = bs @ u
    m = u[x, 0] * u[y, 1] * np.eye(4) + u[y, 0] * u[x, 1] * swap_operator(2)
    phi = np.array([[1.0], [0.0], [0.0], [1.0]]) / np.sqrt(2)  # |Phi+> on (b, r)
    return np.kron(m, np.eye(2)) @ np.kron(np.eye(2), phi)


_K_SYM = _pattern_kraus(1, 2)  # (e, f)
_K_ANTI = _pattern_kraus(0, 1)  # (c, e)
# lambda/2 of the real pair: its channels R± = 2 x effect are what the patterns post-select
_W_SYM, _W_ANTI = (lam / 2 for lam, _, _ in universal_branches(2)[:2])


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
            raise ValueError(f"coincidence probabilities out of order: "
                             f"p_anti={self.p_anti}, p_sym={self.p_sym}")


def simulate_optics(rho: np.ndarray) -> CoincidenceStats:
    """Run the bench on a qubit state and post-select the two patterns.

    Returns the exact pattern probabilities (state-independent: 3/16 and
    1/16) and the normalized post-selected states on detected pair x
    reference.
    """
    rho = check_density_matrix(rho)
    if rho.shape != (2, 2):
        raise ValueError(f"input photon must be a polarization qubit, got side {rho.shape[0]}")
    sym, anti = (k @ rho @ k.conj().T for k in (_K_SYM, _K_ANTI))
    p_sym, p_anti = float(np.trace(sym).real), float(np.trace(anti).real)
    return CoincidenceStats(p_sym, p_anti, state_sym=sym / p_sym, state_anti=anti / p_anti)


def recombine_coincidences(stats: CoincidenceStats, a: np.ndarray, b: np.ndarray) -> float:
    """Weighted two-copy expectation +3/2 <A x B>_sym - 1/2 <A x B>_anti.

    Equals Tr[rho (AB + BA)] / 2 for the input state the stats came from.
    The reference qubit is traced out: it is only classically correlated
    with the detected pair, so it does not affect this expectation.
    """
    a, b = check_observable(a), check_observable(b)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("observables must act on polarization qubits")
    ab = np.kron(a, b)
    pair_sym = partial_trace(stats.state_sym, (0, 1), [2, 2, 2])
    pair_anti = partial_trace(stats.state_anti, (0, 1), [2, 2, 2])
    val_sym = float(np.trace(pair_sym @ ab).real)
    val_anti = float(np.trace(pair_anti @ ab).real)
    return _W_SYM * val_sym + _W_ANTI * val_anti
