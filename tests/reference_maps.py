"""Independent references that the tests compare the package against.

Each map is built from its defining formula with dense two-copy operators,
never from the package's Kraus stacks or cached process matrices, so a test
that compares the two checks one construction against another.
"""

from collections import Counter
from math import factorial

import numpy as np

from twopoint.choi import ChoiOperator
from twopoint.linalg import q_operator, sector_projector, swap_operator
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
