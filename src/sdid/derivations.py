"""Microscopic master-equation builders for a flat zero-temperature bath
(rate gamma0 at positive Bohr frequencies, none elsewhere): partial secular
(clustered) and time-coarse-grained cumulant-expansion forms.

Workflow: eigendecompose a system Hamiltonian, split a system-bath coupling
operator into Bohr-frequency components, agglomerate nearly degenerate
frequencies into clusters, then assemble a Liouvillian.  Over zero-width
clusters the partial secular generator is the fully secular one.  The
coarse-grained builder carries a user-defined time tau_C that interpolates
between the clustered (tau_C -> 0) and fully secular (tau_C -> infinity)
generators while preserving complete positivity (its rate matrix is a Gram
matrix, hence PSD).

Sign conventions: |1> is the excited state (energy +omega/2), so the
reference Hamiltonians here carry -(omega/2) Z self-energy terms and
sigma_minus components appear at positive Bohr frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import operators as ops


def sinc(x) -> np.ndarray:
    """sin(x)/x with sinc(0) = 1 (unnormalized convention)."""
    return np.sinc(np.asarray(x) / np.pi)


@dataclass(frozen=True)
class DissipativeGenerator:
    """Generator sum rate D[x] over the (rate, x) of `jump_terms`, with
    ``D[x] rho = x rho x^dag - {x^dag x, rho}/2`` on a `dim`-level system
    and no Hamiltonian."""

    jump_terms: tuple[tuple[float, np.ndarray], ...]
    dim: int

    @property
    def superop(self) -> np.ndarray:
        """Dense dim^2 x dim^2 superoperator, summed per read.  Each
        dissipator is complete before it is scaled and added, so rate * D[x]
        keeps its trace cancellation exact instead of mixing the rates of
        different jumps."""
        total = np.zeros((self.dim ** 2,) * 2, dtype=complex)
        for rate, x in self.jump_terms:
            minus_half = -0.5 * (x.conj().T @ x)
            term = ops.sandwich(x, x.conj().T)
            term += ops.left_mult(minus_half)
            term += ops.right_mult(minus_half)
            term *= rate
            total += term
        return total


@dataclass(frozen=True)
class BohrTerm:
    """One Bohr frequency and its Lindblad operator component of the coupling."""

    frequency: float
    op: np.ndarray


@dataclass(frozen=True)
class Cluster:
    """A group of nearly degenerate Bohr terms."""

    members: tuple[BohrTerm, ...]

    @property
    def mean(self) -> float:
        return float(np.mean([m.frequency for m in self.members]))

    @property
    def collective_op(self) -> np.ndarray:
        return np.sum([m.op for m in self.members], axis=0)


@dataclass(frozen=True)
class RateMatrix:
    """Hermitian PSD matrix of coarse-grained rates over a cluster's frequencies."""

    matrix: np.ndarray

    @classmethod
    def build(cls, frequencies: Sequence[float], tau_c: float,
              gamma_bar: float) -> "RateMatrix":
        freqs = np.asarray(frequencies, dtype=float)
        m = cetcg_rate(freqs[:, None], freqs[None, :], tau_c, gamma_bar)
        return cls(matrix=m)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix).min())


def bohr_spectrum(h_s: np.ndarray, x: np.ndarray) -> list[BohrTerm]:
    """Split a coupling operator into Bohr-frequency components of H_S.

    For each frequency Omega = lambda_j - lambda_k (frequencies within
    1e-9 * max(1, max |lambda|) of each other are one group),
    L_Omega sums <lambda_k|X|lambda_j> |lambda_k><lambda_j| over connected
    eigenpairs; components with negligible matrix elements are dropped.
    The components are complete: sum of all L_Omega reconstructs X.
    """
    h_s = np.asarray(h_s, dtype=complex)
    if ops.hermiticity_defect(h_s) > 1e-9 * max(1.0, np.abs(h_s).max()):
        raise ValueError("H_S must be Hermitian")
    evals, evecs = np.linalg.eigh(h_s)
    tol = 1e-9 * max(1.0, np.abs(evals).max())
    x_eig = evecs.conj().T @ np.asarray(x, dtype=complex) @ evecs
    elem_tol = 1e-12 * max(1.0, np.abs(x_eig).max())

    terms: list[BohrTerm] = []
    d = evals.size
    for k in range(d):
        for j in range(d):
            amp = x_eig[k, j]
            if abs(amp) < elem_tol:
                continue
            omega = evals[j] - evals[k]
            term = next((t for t in terms
                         if abs(omega - t.frequency) <= tol), None)
            if term is None:
                term = BohrTerm(frequency=omega,
                                op=np.zeros((d, d), dtype=complex))
                terms.append(term)
            term.op[:] += amp * np.outer(evecs[:, k], evecs[:, j].conj())
    return sorted(terms, key=lambda t: t.frequency)


def cluster_bohr(terms: Sequence[BohrTerm],
                 delta_omega: float) -> list[Cluster]:
    """Greedy agglomeration of sorted Bohr frequencies.

    A neighbor joins the current cluster as long as every member stays within
    the running mean +- delta_omega.  delta_omega = 0 gives one cluster per
    distinct frequency, over which the partial secular builders are fully
    secular.
    """
    if delta_omega < 0:
        raise ValueError("delta_omega must be >= 0")
    ordered = sorted(terms, key=lambda t: t.frequency)
    clusters: list[Cluster] = []
    current: list[BohrTerm] = []
    for term in ordered:
        trial = current + [term]
        freqs = np.array([t.frequency for t in trial])
        mean = freqs.mean()
        if current and np.abs(freqs - mean).max() > delta_omega:
            clusters.append(Cluster(members=tuple(current)))
            current = [term]
        else:
            current = trial
    if current:
        clusters.append(Cluster(members=tuple(current)))
    return clusters


def _dissipative(clusters: Sequence[Cluster], gamma0: float,
                 cluster_jumps) -> DissipativeGenerator:
    """Generator of a flat zero-temperature bath: each cluster of positive
    mean frequency adds the jumps `cluster_jumps(cluster, gamma0)`, the
    others none.  No Lamb-shift Hamiltonian: it would only weakly
    renormalize the system energies."""
    d = clusters[0].members[0].op.shape[0] if clusters else 1
    jumps = [jump for cluster in clusters if cluster.mean > 0 and gamma0 > 0
             for jump in cluster_jumps(cluster, gamma0)]
    return DissipativeGenerator(tuple(jumps), d)


def build_bmpsa(clusters: Sequence[Cluster],
                gamma0: float) -> DissipativeGenerator:
    """Partial secular generator: one dissipator per cluster, its members
    summed coherently.  Over zero-width clusters it is fully secular."""
    return _dissipative(clusters, gamma0,
                        lambda cluster, rate: [(rate, cluster.collective_op)])


def cetcg_rate(omega, omega_p, tau_c: float, gamma_bar: float) -> np.ndarray:
    """Coarse-grained rate between Bohr frequencies within one cluster.

    gamma_bar * e^{i (O'-O) tau_c / 2} sinc((O'-O) tau_c / 2), so equal
    frequencies give gamma_bar; the frequencies broadcast.
    """
    if tau_c <= 0:
        raise ValueError("tau_c must be positive")
    half = 0.5 * (np.asarray(omega_p) - omega) * tau_c
    return gamma_bar * np.exp(1j * half) * sinc(half)


def _kossakowski_jumps(rate_matrix: np.ndarray,
                       lindblad_ops: Sequence[np.ndarray]
                       ) -> list[tuple[float, np.ndarray]]:
    """Diagonalize a Hermitian PSD rate matrix into (rate, operator) pairs."""
    evals, evecs = np.linalg.eigh(rate_matrix)
    jumps = []
    for k in range(evals.size):
        rate = float(evals[k])
        if rate <= 1e-14 * max(1.0, float(np.abs(evals).max())):
            continue
        op = np.sum([evecs[a, k] * lindblad_ops[a]
                     for a in range(len(lindblad_ops))], axis=0)
        jumps.append((rate, op))
    return jumps


def build_cetcg(clusters: Sequence[Cluster], gamma0: float,
                tau_c: float) -> DissipativeGenerator:
    """Coarse-grained generator with coherent cross terms inside each cluster.

    Cross-cluster rates are taken to be zero ((O'-O) tau_c >> 1 between
    clusters).  Each cluster's rate matrix is diagonalized so that the
    generator is expressed as a plain (rate, operator) Lindblad list.
    """
    def cluster_jumps(cluster, rate):
        rm = RateMatrix.build([m.frequency for m in cluster.members], tau_c,
                              rate)
        return _kossakowski_jumps(rm.matrix, [m.op for m in cluster.members])

    return _dissipative(clusters, gamma0, cluster_jumps)


def two_qubit_hamiltonian(omega0: float, omega1: float,
                          nu: float) -> np.ndarray:
    """Reference two-qubit system Hamiltonian with ZZ coupling.

    Excited states sit at +omega/2, so transitions mediated by sigma_minus
    carry positive Bohr frequencies (omega +- 2 nu).
    """
    n = 2
    return (-0.5 * omega0 * ops.embed(ops.Z, 0, n)
            - 0.5 * omega1 * ops.embed(ops.Z, 1, n)
            + nu * ops.embed(ops.Z, 0, n) @ ops.embed(ops.Z, 1, n))


def two_qubit_coupling(a: float = 0.0) -> np.ndarray:
    """Spectator-bath coupling operator X_1 + a X_0 Z_1 (hybridization a)."""
    return ops.kron(ops.I2, ops.X) + a * ops.kron(ops.X, ops.Z)


def two_qubit_kossakowski(nu: float, tau_c: float,
                          gamma: float) -> np.ndarray:
    """Rate matrix over (I (x) sm, Zs (x) sm) of the reference generator.

    PSD, since det = (gamma/2)^2 (1 - sinc(2 nu tau_c)^2) >= 0.
    """
    if tau_c <= 0:
        raise ValueError("tau_c must be positive")
    u = 2.0 * nu * tau_c
    s4 = float(sinc(2.0 * u))
    cross = float(np.sin(u) * sinc(u))
    return 0.5 * gamma * np.array([[1.0 + s4, 1j * cross],
                                   [-1j * cross, 1.0 - s4]], dtype=complex)


def two_qubit_cetcg_reference(nu: float, tau_c: float,
                              gamma: float) -> np.ndarray:
    """Closed-form coarse-grained generator for the two-qubit system.

    (gamma/2) [ (1 + sinc(4 nu tau_c)) D[I (x) sm]
              + (1 - sinc(4 nu tau_c)) D[Zs (x) sm]
              + sin(2 nu tau_c) sinc(2 nu tau_c)
                (i I (x) sm rho Zs (x) sp + h.c.) ],
    with Zs = |1><1| - |0><0| the spectator-conditioned sign operator, as
    its dense 16 x 16 superoperator on vec(rho).  The sum is taken term by
    term over the rate matrix, not over its diagonalized jumps, so it
    checks `build_cetcg`.
    """
    k = two_qubit_kossakowski(nu, tau_c, gamma)
    p = ops.kron(ops.I2, ops.SIGMA_MINUS)
    zs = -ops.Z  # |1><1| - |0><0|
    q = ops.kron(zs, ops.SIGMA_MINUS)
    superop = np.zeros((16, 16), dtype=complex)
    lind = [p, q]
    for a in range(2):
        for b in range(2):
            la, lb = lind[a], lind[b]
            superop = superop + k[a, b] * (
                ops.sandwich(la, lb.conj().T)
                - 0.5 * (ops.left_mult(lb.conj().T @ la)
                         + ops.right_mult(lb.conj().T @ la)))
    return superop


def choi_matrix(superop: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) E(|i><j|) of a channel superoperator."""
    d = int(round(np.sqrt(superop.shape[0])))
    # Column stacking puts E(|i><j|)[k, l] at superop[l*d + k, j*d + i].
    choi = superop.reshape((d,) * 4).transpose(3, 1, 2, 0)
    return choi.reshape(d * d, d * d)
