"""The two-point correlation map, its physical branches, and exact values.

For a state rho and observables A, B on one d-dimensional system, the target
quantity Tr[A rho B] equals Tr[T(rho) (A (x) B)] for the (unphysical) map
T(rho) = S (1 (x) rho) built from the swap operator S. T splits into a
Hermitian-output real part and imaginary part, T = R - iI, and each part is a
weighted difference of two genuine channels:

    R = (d+1)/2 * R+  -  (d-1)/2 * R-      R±(rho) = 2/(d±1) P± (1(x)rho) P±
    I = c/2 * I+  -  c/2 * I-,  c = sqrt(d^2-1),
                                           I±(rho) = 2d/(d^2-1) Q± (1(x)rho) Q∓

with P± the exchange-sector projectors and Q± the complex-phase blends
(1 + zS)/2. In instrument form the branch pairs {R±/2} and {I±/2} carry
weights ±(d±1) and ±sqrt(d^2-1); the resulting error-amplification factors d
and sqrt(d^2-1) meet the universal lower bound at every input state, with
branch probabilities exactly 1/2 each.

Each branch is c G (1 (x) rho) G^dag with G = (1 + zS)/2; the table
``universal_branches`` of their (lambda, c, z) is the one that the family,
the decompositions, the sampler and the optics recombination all read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .choi import ChoiOperator, apply_choi
from .decomposition import StatisticalDecomposition


def universal_branches(d: int) -> tuple[tuple[float, float, complex], ...]:
    """(lambda, c, z) of the four branches c G (1 (x) rho) G^dag, G = (1 + zS)/2,
    of the universal instruments: the real pair z = +1, -1 with c = 1/(d±1)
    and weights ±(d±1), then the imaginary pair z, conj(z) with
    z = (-1 + i sqrt(d^2-1))/d, c = d/(d^2-1) and weights ±sqrt(d^2-1)."""
    if d < 2:
        raise ValueError(f"the universal branches need dimension >= 2, got {d}")
    lam = math.sqrt(d * d - 1)
    z, c = complex(-1, lam) / d, d / (d * d - 1)
    return ((d + 1.0, 1 / (d + 1), 1 + 0j), (1.0 - d, 1 / (d - 1), -1 + 0j),
            (lam, c, z), (-lam, c, z.conjugate()))


def _swap_stacks(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(L, R): the C-contiguous (d, d*d, d) stacks L_a = S (|a> (x) 1) and
    R_a = |a> (x) 1, which take |c> to |c, a> and |a, c>."""
    a, c = np.divmod(np.arange(d * d), d)
    left, right = np.zeros((2, d, d * d, d), dtype=complex)
    left[a, c * d + a, c] = right[a, a * d + c, c] = 1
    return left, right


def _branches(d: int, k: float, rows) -> tuple[ChoiOperator, ...]:
    """The maps rho -> k c G (1 (x) rho) G^dag of the ``universal_branches``
    rows (lambda, c, z), each carried by its d Kraus operators
    sqrt(k c) G (|a> (x) 1) = sqrt(k c) (R_a + z L_a)/2."""
    left, right = _swap_stacks(d)
    return tuple(ChoiOperator(None, d_in=d, d_out=d * d, kraus=math.sqrt(k * c) * ((right + z * left) / 2))
                 for _, c, z in rows)


def _ideal_part(d: int, c: complex) -> ChoiOperator:
    """c X + conj(c) X^dag, X the process matrix of S (1 (x) rho): c = 1/2
    gives the real part, c = i/2 the imaginary part. 1 (x) rho is
    sum_a (|a> (x) 1) rho (<a| (x) 1), so S (1 (x) rho) = sum_a L_a rho R_a^dag;
    X^dag is the process matrix of (1 (x) rho) S, carried by the swapped
    stacks."""
    left, right = _swap_stacks(d)
    return ChoiOperator(
        None, d_in=d, d_out=d * d,
        kraus=np.concatenate([c * left, np.conj(c) * right]),
        right=np.concatenate([right, left]),
    )


@dataclass(frozen=True, eq=False)
class CorrelatorFamily:
    """Fixed operators for one system dimension d >= 2.

    Builds the representing operators of all six maps (real/imaginary parts
    and their four physical branches, the channels 2 c G (1 (x) rho) G^dag of
    ``universal_branches``) on first access: the branches carry their Kraus
    stacks, the parts two-sided stacks of the defining map S (1 (x) rho), not
    built from the branches. Everything is read-only once built; threads that
    first touch a map at once may each build it, with equal results.
    """

    d: int

    def __post_init__(self):
        universal_branches(self.d)  # the dimension check

    _channels = cached_property(lambda self: _branches(self.d, 2, universal_branches(self.d)))
    j_real = cached_property(lambda self: _ideal_part(self.d, 0.5))
    j_imag = cached_property(lambda self: _ideal_part(self.d, 0.5j))
    j_sym = property(lambda self: self._channels[0])
    j_anti = property(lambda self: self._channels[1])
    j_phase_plus = property(lambda self: self._channels[2])
    j_phase_minus = property(lambda self: self._channels[3])


def real_part_apply(fam: CorrelatorFamily, rho: np.ndarray) -> np.ndarray:
    """[(1 (x) rho) S + S (1 (x) rho)] / 2 — Hermitian, trace 1."""
    return apply_choi(fam.j_real, _check_dim(fam, rho))


def imag_part_apply(fam: CorrelatorFamily, rho: np.ndarray) -> np.ndarray:
    """[(1 (x) rho) S - S (1 (x) rho)] / 2i — Hermitian, trace 0."""
    return apply_choi(fam.j_imag, _check_dim(fam, rho))


def _decomposition(d: int, rows) -> StatisticalDecomposition:
    """Weights lambda and effects (the branches at k = 1) of the rows."""
    return StatisticalDecomposition(tuple(lam for lam, _, _ in rows), _branches(d, 1, rows))


def universal_real_decomposition(d: int) -> StatisticalDecomposition:
    """Instrument form of the real part: effects {R±/2}, weights ±(d±1)."""
    return _decomposition(d, universal_branches(d)[:2])


def universal_imag_decomposition(d: int) -> StatisticalDecomposition:
    """Instrument form of the imaginary part: effects {I±/2}, weights
    ±sqrt(d^2-1)."""
    return _decomposition(d, universal_branches(d)[2:])


def choi_builders(fam: CorrelatorFamily) -> dict[str, ChoiOperator]:
    """All six representing operators keyed by branch name."""
    names = ("real", "imag", "sym", "anti", "phase_plus", "phase_minus")
    return {name: getattr(fam, f"j_{name}") for name in names}


def two_point_exact(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> complex:
    """Ground truth: the product trace Tr[A rho B] = sum_ij A_ij (rho B)_ji."""
    rho = np.asarray(rho, dtype=complex)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if not (rho.shape == a.shape == b.shape) or rho.shape[0] != rho.shape[1]:
        raise ValueError(
            f"dimension mismatch: rho {rho.shape}, a {a.shape}, b {b.shape}"
        )
    return complex((a * (rho @ b).T).sum())


def _check_dim(fam: CorrelatorFamily, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (fam.d, fam.d):
        raise ValueError(f"state shape {rho.shape} does not match family dimension {fam.d}")
    return rho
