"""Small dense operator algebra shared by the engines: Pauli matrices,
tensor embedding, vectorization, superoperator helpers and a checked matrix
exponential.

The exponential takes any matrix, or a stack of equal-size matrices; the
Lindblad engine in :mod:`sdid.model` exponentiates its sector blocks with
it, and other callers pass small dense generators.  It is scaling and
squaring with the degree-13 Pade approximant (Higham, SIAM J. Matrix Anal.
Appl. 26, 1179 (2005)), written in numpy over the whole stack, so the
package never loads scipy.  Each matrix gets its own scaling exponent, so
a matrix of a stack comes out bitwise equal to its exponential taken alone.

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

    Site 0 is the leftmost tensor factor (the control qubit).  The result is
    I_left (x) op (x) I_right, two Kronecker products whatever n is.  For
    `Z`, `X` and `SIGMA_MINUS` it equals the product of all n one-qubit
    factors bit for bit, signed zeros included; an operator holding a -0.0,
    such as `Y`, can differ from that product in the sign of a zero.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"embed expects a 2x2 operator, got shape {op.shape}")
    if not 0 <= site < n_qubits:
        raise ValueError(f"site {site} out of range for {n_qubits} qubits")
    left = np.eye(2 ** site, dtype=complex)
    right = np.eye(2 ** (n_qubits - site - 1), dtype=complex)
    return kron(kron(left, op), right)


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


# Numerator coefficients b_0..b_13 of the [13/13] Pade approximant of exp,
# divided by b_0 so that b_0 = 1 and expm(0) is exactly the identity, and
# the largest 1-norm theta_13 at which the approximant is accurate to unit
# roundoff in double precision (Higham 2005).
_PADE13 = tuple(b / 64764752532480000 for b in (
    64764752532480000, 32382376266240000, 7771770303897600,
    1187353796428800, 129060195264000, 10559470521600, 670442572800,
    33522128640, 1323241920, 40840800, 960960, 16380, 182, 1))
_THETA13 = 5.371920351148152


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the [13/13] Pade
    approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).

    Takes a square matrix or a stack (..., n, n) of them.  Each matrix A is
    scaled by its own 2^-s, s = max(0, ceil(log2(||A||_1 / theta_13))), and
    matrices that share s are evaluated together, so every matrix of a
    stack comes out bitwise equal to its exponential taken alone.  Raises
    ValueError on non-square or non-finite input.

    The exponent follows the 1-norm, so a matrix whose norm far exceeds
    the growth of its powers is over-scaled: on [[1, b], [0, -1]] the
    error relative to the result is 1e-14 at b = 1e3 but 3e-12 at b = 1e6.
    The Lindblad sector blocks are far from that regime.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expm expects square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("expm input contains non-finite entries")
    n = m.shape[-1]
    stack = m.reshape(-1, n, n)
    norms = np.abs(stack).sum(axis=-2).max(axis=-1)
    exponents = np.ceil(np.log2(np.maximum(norms / _THETA13, 1.0))).astype(int)
    out = np.empty_like(stack)
    for s in np.unique(exponents):
        pick = exponents == s
        out[pick] = _pade13_squared(stack[pick] / 2.0 ** s, int(s))
    return out.reshape(m.shape)


def _pade13_squared(a: np.ndarray, squarings: int) -> np.ndarray:
    """r13(a) = solve(V - U, V + U) for a stack a, squared `squarings` times."""
    b = _PADE13
    eye = np.eye(a.shape[-1], dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M^dagger|, zero for Hermitian matrices."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)))
