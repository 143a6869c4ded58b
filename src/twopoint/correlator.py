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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .choi import ChoiOperator
from .decomposition import StatisticalDecomposition
from .linalg import q_operator, sector_projector, swap_operator


def _frozen(m: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(m)
    m.flags.writeable = False
    return m


def _column_blocks(op: np.ndarray) -> np.ndarray:
    """The C-contiguous (d, d*d, d) stack of operators op (|i> (x) 1) of a
    d^2-sided op: column i*d + c of op is op (|i> (x) |c>)."""
    d = math.isqrt(op.shape[0])
    return np.ascontiguousarray(op.reshape(d * d, d, d).transpose(1, 0, 2))


def _sandwich(left: np.ndarray, scale: float) -> ChoiOperator:
    """The map rho -> scale * L (1 (x) rho) L^dag on two d-dimensional copies,
    carried by its d Kraus operators sqrt(scale) L (|i> (x) 1)."""
    kraus = np.sqrt(scale) * _column_blocks(left)
    return ChoiOperator(None, d_in=kraus.shape[2], d_out=kraus.shape[1], kraus=kraus)


def _ideal_part(d: int, c: complex) -> ChoiOperator:
    """c X + conj(c) X^dag, X the process matrix of S (1 (x) rho): c = 1/2
    gives the real part, c = i/2 the imaginary part. 1 (x) rho is
    sum_a (|a> (x) 1) rho (<a| (x) 1), so S (1 (x) rho) = sum_a L_a rho R_a^dag
    with L_a = S (|a> (x) 1) and R_a = |a> (x) 1; X^dag is the process matrix
    of (1 (x) rho) S, carried by the swapped stacks."""
    left, right = _column_blocks(swap_operator(d)), _column_blocks(np.eye(d * d))
    return ChoiOperator(
        None, d_in=d, d_out=d * d,
        kraus=np.concatenate([c * left, np.conj(c) * right]),
        right=np.concatenate([right, left]),
    )


@dataclass(frozen=True, eq=False)
class CorrelatorFamily:
    """Fixed operators for one system dimension d >= 2.

    Holds the swap operator and builds the representing operators of all six
    maps (real/imaginary parts and their four physical branches) on first
    access. The branches carry their Kraus stacks; the parts carry two-sided
    stacks built from the defining map S (1 (x) rho), never from the
    branches. Everything is read-only once built; threads that first touch a
    process matrix at once may each build it, with equal results.
    """

    d: int
    swap: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"family requires dimension >= 2, got {self.d}")
        object.__setattr__(self, "swap", _frozen(swap_operator(self.d)))

    j_real = cached_property(lambda self: _ideal_part(self.d, 0.5))
    j_imag = cached_property(lambda self: _ideal_part(self.d, 0.5j))
    j_sym = cached_property(lambda self: _sandwich(sector_projector(self.d, +1), 2 / (self.d + 1)))
    j_anti = cached_property(lambda self: _sandwich(sector_projector(self.d, -1), 2 / (self.d - 1)))
    j_phase_plus = cached_property(lambda self: _sandwich(q_operator(self.d, +1), 2 * self.d / (self.d**2 - 1)))
    j_phase_minus = cached_property(lambda self: _sandwich(q_operator(self.d, -1), 2 * self.d / (self.d**2 - 1)))


def real_part_apply(fam: CorrelatorFamily, rho: np.ndarray) -> np.ndarray:
    """[(1 (x) rho) S + S (1 (x) rho)] / 2 — Hermitian, trace 1."""
    rho = _check_dim(fam, rho)
    x = np.kron(np.eye(fam.d), rho)
    return (x @ fam.swap + fam.swap @ x) / 2


def imag_part_apply(fam: CorrelatorFamily, rho: np.ndarray) -> np.ndarray:
    """[(1 (x) rho) S - S (1 (x) rho)] / 2i — Hermitian, trace 0."""
    rho = _check_dim(fam, rho)
    x = np.kron(np.eye(fam.d), rho)
    return (x @ fam.swap - fam.swap @ x) / 2j


def universal_real_decomposition(d: int) -> StatisticalDecomposition:
    """Instrument form of the real part: effects {R±/2}, weights ±(d±1)."""
    if d < 2:
        raise ValueError(f"decomposition requires dimension >= 2, got {d}")
    return StatisticalDecomposition(
        weights=(float(d + 1), -float(d - 1)),
        effects=tuple(_sandwich(sector_projector(d, s), 1 / (d + s)) for s in (+1, -1)),
    )


def universal_imag_decomposition(d: int) -> StatisticalDecomposition:
    """Instrument form of the imaginary part: effects {I±/2}, weights
    ±sqrt(d^2-1)."""
    if d < 2:
        raise ValueError(f"decomposition requires dimension >= 2, got {d}")
    lam = float(np.sqrt(d * d - 1))
    return StatisticalDecomposition(
        weights=(lam, -lam),
        effects=tuple(_sandwich(q_operator(d, s), d / (d * d - 1)) for s in (+1, -1)),
    )


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
    return complex(np.sum(a * (rho @ b).T))


def _check_dim(fam: CorrelatorFamily, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (fam.d, fam.d):
        raise ValueError(
            f"state shape {rho.shape} does not match family dimension {fam.d}"
        )
    return rho
