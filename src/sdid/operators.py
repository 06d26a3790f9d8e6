"""Small dense operator algebra shared by the engines: Pauli matrices,
tensor embedding, vectorization, superoperator helpers and a checked matrix
exponential.

The exponential takes any matrix, or a stack of equal-size matrices; the
Lindblad engine in :mod:`sdid.model` exponentiates its sector blocks with
it, and other callers pass small dense generators.  It is the package's
only use of scipy, and ``scipy.linalg`` is imported on its first call, so
commands that exponentiate nothing never pay for loading it.

Conventions used throughout the package:

* Basis ordering ``|0> = (1, 0)``, ``|1> = (0, 1)``; ``Z|0> = +|0>``.
* ``sigma_minus = |0><1|`` relaxes the excited state to the ground state.
* Density matrices are vectorized by column stacking, so that
  ``vec(A @ rho @ B) == kron(B.T, A) @ vec(rho)``.
* Tensor factor 0 (the leftmost Kronecker factor) is the control qubit.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(ops: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    out = None
    for op in ops:
        out = np.asarray(op, dtype=complex) if out is None else kron(out, op)
    if out is None:
        raise ValueError("kron_all requires at least one operator")
    return out


def embed(op: np.ndarray, site: int, n_qubits: int) -> np.ndarray:
    """Embed a single-qubit operator at position `site` of an n-qubit register.

    Site 0 is the leftmost tensor factor (the control qubit).
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"embed expects a 2x2 operator, got shape {op.shape}")
    if not 0 <= site < n_qubits:
        raise ValueError(f"site {site} out of range for {n_qubits} qubits")
    return kron_all([op if k == site else I2 for k in range(n_qubits)])


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a square matrix into a vector."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"vectorize expects a square matrix, got shape {rho.shape}")
    return rho.reshape(-1, order="F")


def unvectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    v = np.asarray(v, dtype=complex).ravel()
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a stacked square matrix")
    return v.reshape((d, d), order="F")


def sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of ``rho -> a @ rho @ b`` in the column-stacking convention."""
    return kron(np.asarray(b, dtype=complex).T, a)


def left_mult(a: np.ndarray) -> np.ndarray:
    """Superoperator of ``rho -> a @ rho``."""
    d = a.shape[0]
    return kron(np.eye(d, dtype=complex), a)


def right_mult(b: np.ndarray) -> np.ndarray:
    """Superoperator of ``rho -> rho @ b``."""
    d = b.shape[0]
    return kron(np.asarray(b, dtype=complex).T, np.eye(d, dtype=complex))


def trace_row(d: int) -> np.ndarray:
    """Row functional r such that ``r @ vec(rho) == trace(rho)``."""
    return vectorize(np.eye(d, dtype=complex))


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with Pade approximant).

    Takes a square matrix or a stack (..., n, n) of them, each exponentiated
    on its own. Raises ValueError on non-finite entries; delegates the
    numerics to ``scipy.linalg.expm``.
    """
    import scipy.linalg     # about 0.1 s to load; most commands never need it

    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expm expects square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("expm input contains non-finite entries")
    return scipy.linalg.expm(m)


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M^dagger|, zero for Hermitian matrices."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)))
