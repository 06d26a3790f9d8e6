"""Microscopic master-equation builders: strong secular (RWA), partial
secular (clustered), and time-coarse-grained cumulant-expansion forms.

Workflow: eigendecompose a system Hamiltonian, split a system-bath coupling
operator into Bohr-frequency components, optionally agglomerate nearly
degenerate frequencies into clusters, then assemble a Liouvillian with rates
drawn from a bath spectrum.  The coarse-grained builder carries a
user-defined time tau_C that interpolates between the clustered (tau_C -> 0)
and fully secular (tau_C -> infinity) generators while preserving complete
positivity (its rate matrix is a Gram matrix, hence PSD).

Sign conventions: |1> is the excited state (energy +omega/2), so the
reference Hamiltonians here carry -(omega/2) Z self-energy terms and
sigma_minus components appear at positive Bohr frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import operators as ops
from .model import LiouvillianBundle


def sinc(x) -> np.ndarray:
    """sin(x)/x with sinc(0) = 1 (unnormalized convention)."""
    return np.sinc(np.asarray(x) / np.pi)


@dataclass(frozen=True)
class BathSpectrum:
    """Decay rate as a function of the Bohr frequency (1/s).

    Zero temperature: no spectral weight at non-positive frequencies.
    """

    gamma_of: Callable[[float], float]

    @classmethod
    def flat(cls, gamma0: float) -> "BathSpectrum":
        """Gamma(omega) = gamma0 for omega > 0, zero otherwise."""
        return cls(gamma_of=lambda omega: gamma0 if omega > 0 else 0.0)


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

    frequencies: np.ndarray
    matrix: np.ndarray
    tau_c: float

    @classmethod
    def build(cls, frequencies: Sequence[float], tau_c: float,
              gamma_bar: float) -> "RateMatrix":
        freqs = np.asarray(frequencies, dtype=float)
        m = np.empty((freqs.size, freqs.size), dtype=complex)
        for a, oa in enumerate(freqs):
            for b, ob in enumerate(freqs):
                m[a, b] = cetcg_rate(oa, ob, tau_c, gamma_bar)
        return cls(frequencies=freqs, matrix=m, tau_c=tau_c)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix).min())


def bohr_spectrum(h_s: np.ndarray, x: np.ndarray,
                  tol: float | None = None) -> list[BohrTerm]:
    """Split a coupling operator into Bohr-frequency components of H_S.

    For each frequency Omega = lambda_j - lambda_k (grouped within `tol`),
    L_Omega sums <lambda_k|X|lambda_j> |lambda_k><lambda_j| over connected
    eigenpairs; components with negligible matrix elements are dropped.
    The components are complete: sum of all L_Omega reconstructs X.
    """
    h_s = np.asarray(h_s, dtype=complex)
    if ops.hermiticity_defect(h_s) > 1e-9 * max(1.0, np.abs(h_s).max()):
        raise ValueError("H_S must be Hermitian")
    evals, evecs = np.linalg.eigh(h_s)
    tol = tol if tol is not None else 1e-9 * max(1.0, np.abs(evals).max())
    x_eig = evecs.conj().T @ np.asarray(x, dtype=complex) @ evecs
    elem_tol = 1e-12 * max(1.0, np.abs(x_eig).max())

    terms: dict[int, tuple[float, np.ndarray]] = {}
    freq_reps: list[float] = []
    d = evals.size
    for k in range(d):
        for j in range(d):
            amp = x_eig[k, j]
            if abs(amp) < elem_tol:
                continue
            omega = evals[j] - evals[k]
            for idx, rep in enumerate(freq_reps):
                if abs(omega - rep) <= tol:
                    key = idx
                    break
            else:
                key = len(freq_reps)
                freq_reps.append(omega)
                terms[key] = (omega, np.zeros((d, d), dtype=complex))
            acc_omega, acc = terms[key]
            acc += amp * np.outer(evecs[:, k], evecs[:, j].conj())
    out = [BohrTerm(frequency=omega, op=op)
           for omega, op in terms.values()]
    out.sort(key=lambda t: t.frequency)
    return out


def build_bmrwa(terms: Sequence[BohrTerm],
                bath: BathSpectrum) -> LiouvillianBundle:
    """Fully secular generator: one dissipator per Bohr frequency.

    No Lamb-shift Hamiltonian: it would only weakly renormalize the system
    energies, so the generator is purely dissipative.
    """
    d = terms[0].op.shape[0] if terms else 1
    jumps = []
    for term in terms:
        rate = bath.gamma_of(term.frequency)
        if rate > 0:
            jumps.append((rate, term.op))
    h = np.zeros((d, d), dtype=complex)
    return LiouvillianBundle.from_terms(h, jumps)


def cluster_bohr(terms: Sequence[BohrTerm],
                 delta_omega: float) -> list[Cluster]:
    """Greedy agglomeration of sorted Bohr frequencies.

    A neighbor joins the current cluster as long as every member stays within
    the running mean +- delta_omega.  delta_omega = 0 gives one cluster per
    distinct frequency, reducing the partial secular builders to fully
    secular ones.
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


def build_bmpsa(clusters: Sequence[Cluster],
                bath: BathSpectrum) -> LiouvillianBundle:
    """Partial secular generator: one dissipator per cluster, members summed
    coherently, rate evaluated at the cluster mean frequency."""
    d = clusters[0].members[0].op.shape[0] if clusters else 1
    jumps = []
    for cluster in clusters:
        rate = bath.gamma_of(cluster.mean)
        if rate > 0:
            jumps.append((rate, cluster.collective_op))
    h = np.zeros((d, d), dtype=complex)
    return LiouvillianBundle.from_terms(h, jumps)


def cetcg_rate(omega: float, omega_p: float, tau_c: float,
               gamma_bar: float) -> complex:
    """Coarse-grained rate between Bohr frequencies within one cluster.

    Equal frequencies give gamma_bar; otherwise
    gamma_bar * e^{i (O'-O) tau_c / 2} sinc((O'-O) tau_c / 2).
    """
    if tau_c <= 0:
        raise ValueError("tau_c must be positive")
    if omega == omega_p:
        return complex(gamma_bar)
    half = 0.5 * (omega_p - omega) * tau_c
    return gamma_bar * np.exp(1j * half) * complex(sinc(half))


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


def build_cetcg(clusters: Sequence[Cluster], bath: BathSpectrum,
                tau_c: float) -> LiouvillianBundle:
    """Coarse-grained generator with coherent cross terms inside each cluster.

    Cross-cluster rates are taken to be zero ((O'-O) tau_c >> 1 between
    clusters).  Each cluster's rate matrix is diagonalized so that the bundle
    is expressed as a plain (rate, operator) Lindblad list.
    """
    d = clusters[0].members[0].op.shape[0] if clusters else 1
    jumps: list[tuple[float, np.ndarray]] = []
    for cluster in clusters:
        gamma_bar = bath.gamma_of(cluster.mean)
        if gamma_bar <= 0:
            continue
        freqs = [m.frequency for m in cluster.members]
        rm = RateMatrix.build(freqs, tau_c, gamma_bar)
        jumps.extend(_kossakowski_jumps(rm.matrix,
                                        [m.op for m in cluster.members]))
    h = np.zeros((d, d), dtype=complex)
    return LiouvillianBundle.from_terms(h, jumps)


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


def two_qubit_cetcg_reference(nu: float, tau_c: float,
                              gamma: float) -> LiouvillianBundle:
    """Closed-form coarse-grained generator for the two-qubit system.

    (gamma/2) [ (1 + sinc(4 nu tau_c)) D[I (x) sm]
              + (1 - sinc(4 nu tau_c)) D[Zs (x) sm]
              + sin(2 nu tau_c) sinc(2 nu tau_c)
                (i I (x) sm rho Zs (x) sp + h.c.) ],
    with Zs = |1><1| - |0><0| the spectator-conditioned sign operator.
    """
    if tau_c <= 0:
        raise ValueError("tau_c must be positive")
    p = ops.kron(ops.I2, ops.SIGMA_MINUS)
    zs = -ops.Z  # |1><1| - |0><0|
    q = ops.kron(zs, ops.SIGMA_MINUS)
    u = 2.0 * nu * tau_c
    s4 = float(sinc(2.0 * u))
    cross = float(np.sin(u) * sinc(u))
    # Kossakowski matrix over (p, q); PSD since det = 1 - sinc(u)^2 >= 0.
    k = 0.5 * gamma * np.array([[1.0 + s4, 1j * cross],
                                [-1j * cross, 1.0 - s4]], dtype=complex)
    superop = np.zeros((16, 16), dtype=complex)
    lind = [p, q]
    for a in range(2):
        for b in range(2):
            la, lb = lind[a], lind[b]
            superop = superop + k[a, b] * (
                ops.sandwich(la, lb.conj().T)
                - 0.5 * (ops.left_mult(lb.conj().T @ la)
                         + ops.right_mult(lb.conj().T @ la)))
    jumps = tuple(_kossakowski_jumps(k, lind))
    h = np.zeros((4, 4), dtype=complex)
    # One block over all 16 indices keeps this sum independent of the
    # sector builder.
    whole = ((np.arange(16)[None, :], superop[None]),)
    return LiouvillianBundle(hamiltonian=h, jump_terms=jumps, sectors=whole)


def choi_matrix(superop: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) E(|i><j|) of a channel superoperator."""
    d = int(round(np.sqrt(superop.shape[0])))
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e_ij = np.zeros((d, d), dtype=complex)
            e_ij[i, j] = 1.0
            out = ops.unvectorize(superop @ ops.vectorize(e_ij))
            choi += np.kron(e_ij, out)
    return choi
