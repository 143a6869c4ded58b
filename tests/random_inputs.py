"""Random test inputs shared by the test modules.

Both helpers draw a d x d complex Gaussian matrix (real parts first, then
imaginary parts), so a given generator state always yields the same input.
"""

import numpy as np


def rand_state(rng, d):
    """Random full-rank density matrix G G^dag / Tr[G G^dag]."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def rand_herm(rng, d):
    """Random Hermitian observable (G + G^dag) / 2."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2
