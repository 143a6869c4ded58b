"""Seeded input generator for the benchmark.

Every input is a pure function of (workload seed, stream tag, index), so the
same seed always gives the same states, observables, maps and MatrixFiles.
The generator uses only NumPy: the program under test receives the generated
arrays and files and nothing else.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Stream tags keep the workloads' inputs independent of each other under one
# workload seed.
STREAMS = {"estimate-shots": 1, "estimate-dims": 2, "cli-checks": 3, "probes": 4}


def op_rng(seed: int, stream: str, index: int) -> np.random.Generator:
    """The generator for input ``index`` of ``stream`` under workload ``seed``."""
    return np.random.default_rng([int(seed), STREAMS[stream], int(index)])


def op_seed(rng: np.random.Generator) -> int:
    """A sampling seed for the program, drawn from the input generator."""
    return int(rng.integers(0, 2**31))


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def mixed_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """A full-rank random density matrix (Ginibre, trace normalized)."""
    g = _ginibre(rng, d)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def pure_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """A random rank-1 density matrix |psi><psi|."""
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def observable(rng: np.random.Generator, d: int) -> np.ndarray:
    """A random Hermitian matrix with d distinct eigenvalues (almost surely)."""
    g = _ginibre(rng, d)
    return (g + g.conj().T) / 2


def two_valued_observable(rng: np.random.Generator, d: int) -> np.ndarray:
    """A random-basis Hermitian matrix with two eigenvalues, each d/2 times."""
    q, _ = np.linalg.qr(_ginibre(rng, d))
    lo, hi = np.sort(rng.normal(size=2))
    values = np.repeat([lo, hi], [d // 2, d - d // 2])
    m = (q * values) @ q.conj().T
    return (m + m.conj().T) / 2


def real_part_process_matrix(d: int) -> np.ndarray:
    """Process matrix of R(X) = [(1 (x) X) S + S (1 (x) X)] / 2.

    The output factor (d^2) is the slowest index, so the side is d^3. Its
    eigenvalues form a few large degenerate clusters and its cost bound is d.
    """
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    eye = np.eye(d)
    jm = np.zeros((d**3, d**3), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d))
            unit[i, j] = 1.0
            x = np.kron(eye, unit)
            jm += np.kron((x @ swap + swap @ x) / 2, unit)
    return jm


def cost_bound(jm: np.ndarray, d_in: int, d_out: int) -> float:
    """Minimum eigenvalue of Tr_out |J|: the cost lower bound of the map."""
    w, v = np.linalg.eigh(jm)
    absj = (v * np.abs(w)) @ v.conj().T
    reduced = np.einsum("aiaj->ij", absj.reshape(d_out, d_in, d_out, d_in))
    return float(np.linalg.eigvalsh(reduced).min())


def random_map(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    """A random Hermitian process matrix rescaled so its cost bound is d_in.

    A generic Hermitian matrix has no degenerate eigenvalues, so this input
    never reaches the cluster sort of the eigendecomposition.
    """
    g = _ginibre(rng, d_in * d_out)
    jm = (g + g.conj().T) / 2
    return jm * (d_in / cost_bound(jm, d_in, d_out))


def matrix_file(m: np.ndarray) -> dict:
    """The MatrixFile document of a matrix: row-major [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    pairs = np.stack([m.real.ravel(), m.imag.ravel()], axis=1)
    return {"rows": m.shape[0], "cols": m.shape[1], "data": pairs.tolist()}


def read_matrix_file(obj: dict) -> np.ndarray:
    """Inverse of ``matrix_file``."""
    pairs = np.asarray(obj["data"], dtype=float)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(obj["rows"], obj["cols"])


def write_matrix(path: str, m: np.ndarray) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_file(m), fh)
    return path


def write_matrices(directory: str, prefix: str, **mats: np.ndarray) -> list[str]:
    """Write each named matrix as ``<prefix>-<name>.json``; return the paths."""
    return [
        write_matrix(os.path.join(directory, f"{prefix}-{name}.json"), m)
        for name, m in mats.items()
    ]
