"""Device description and full Lindblad propagation.

A :class:`DeviceModel` is the single source of truth for every prediction
engine: a control qubit coupled to N spectators through always-on ZZ
interactions, each qubit with its own relaxation and pure dephasing rate.
This module builds the Hamiltonian ``H = sum_j nu_j Z_0 Z_j`` (rotating
frame, no self-energies), assembles the Liouvillian superoperator, and
propagates density matrices exactly via per-segment matrix exponentials,
with optional instantaneous pi pulses on the control qubit.

Internal units: rates in 1/s, couplings nu in rad/s, times in s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import operators as ops
from .operators import SIGMA_MINUS, X, Y, Z


class PhysicalityError(ValueError):
    """Raised when an input state or parameter set is not physical."""


@dataclass(frozen=True)
class QubitParams:
    """Relaxation rate gamma = 1/T1 and pure dephasing rate gamma_phi, in 1/s."""

    gamma: float = 0.0
    gamma_phi: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.gamma < 0:
            raise PhysicalityError(f"qubit {self.label!r}: gamma must be >= 0")
        if self.gamma_phi < 0:
            raise PhysicalityError(f"qubit {self.label!r}: gamma_phi must be >= 0")

    @classmethod
    def from_times(cls, t1: float | None = None, t2: float | None = None,
                   label: str = "") -> "QubitParams":
        """Build from coherence times in seconds; either may be omitted.

        gamma_phi is derived as 1/T2 - 1/(2 T1) and must come out non-negative,
        i.e. T2 <= 2 T1.
        """
        gamma = 0.0 if t1 is None else 1.0 / t1
        if t2 is None:
            gamma_phi = 0.0
        else:
            gamma_phi = 1.0 / t2 - gamma / 2.0
            if gamma_phi < -1e-12 * max(gamma, 1.0 / t2):
                raise PhysicalityError(
                    f"qubit {label!r}: T2 exceeds 2*T1 (T1={t1}, T2={t2})")
            gamma_phi = max(gamma_phi, 0.0)
        return cls(gamma=gamma, gamma_phi=gamma_phi, label=label)

    @property
    def gamma_tilde(self) -> float:
        """Total transverse decay rate gamma_phi + gamma/2 = 1/T2."""
        return self.gamma_phi + self.gamma / 2.0

    @property
    def t2(self) -> float:
        return 1.0 / self.gamma_tilde


@dataclass(frozen=True)
class DeviceModel:
    """Control qubit plus N spectators with ZZ couplings nu_j (rad/s)."""

    control: QubitParams
    spectators: tuple[tuple[QubitParams, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "spectators", tuple(
            (q, float(nu)) for q, nu in self.spectators))

    @property
    def n_spectators(self) -> int:
        return len(self.spectators)

    @property
    def n_qubits(self) -> int:
        return self.n_spectators + 1

    @property
    def nus(self) -> np.ndarray:
        return np.array([nu for _, nu in self.spectators], dtype=float)

    @property
    def spectator_gammas(self) -> np.ndarray:
        return np.array([q.gamma for q, _ in self.spectators], dtype=float)

    def with_couplings(self, nus: Sequence[float]) -> "DeviceModel":
        if len(nus) != self.n_spectators:
            raise ValueError("coupling list length must match spectator count")
        return replace(self, spectators=tuple(
            (q, float(nu)) for (q, _), nu in zip(self.spectators, nus)))


# Spectator initial states are bit tuples, one bit per spectator.
SpectatorInit = tuple[int, ...]


def parse_spectator_init(s, n_spectators: int) -> SpectatorInit:
    """Accept '011'-style strings or bit sequences; validate the length."""
    if isinstance(s, str):
        bits = tuple(int(c) for c in s)
    else:
        bits = tuple(int(b) for b in s)
    if len(bits) != n_spectators:
        raise ValueError(
            f"spectator_init has {len(bits)} bits, expected {n_spectators}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("spectator_init bits must be 0 or 1")
    return bits


@dataclass(frozen=True)
class LiouvillianBundle:
    """Superoperator together with its Hamiltonian and (rate, operator) list."""

    superop: np.ndarray
    hamiltonian: np.ndarray
    jump_terms: tuple[tuple[float, np.ndarray], ...] = ()

    @classmethod
    def from_terms(cls, h: np.ndarray, jumps) -> "LiouvillianBundle":
        """Bundle for ``-i[h, .] + sum rate D[op]`` over (rate, op) in jumps."""
        jumps = tuple(jumps)
        return cls(superop=_superop_from_terms(h, jumps), hamiltonian=h,
                   jump_terms=jumps)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def reassemble(self) -> np.ndarray:
        """Rebuild the superoperator from H and the jump list (consistency check)."""
        return _superop_from_terms(self.hamiltonian, self.jump_terms)


def _superop_from_terms(h: np.ndarray, jumps) -> np.ndarray:
    # Each dissipator is complete before it is scaled and added, so
    # rate * D[x] keeps its trace cancellation exact instead of mixing the
    # rates of different jumps.
    d = h.shape[0]
    total = np.zeros((d * d, d * d), dtype=complex)
    ops.add_left_right_mult(total, -1j * h, 1j * h)
    for rate, op in jumps:
        term = dissipator_superop(op)
        term *= rate
        total += term
    return total


def dissipator_superop(op: np.ndarray) -> np.ndarray:
    """Superoperator of ``D[x] rho = x rho x^dag - {x^dag x, rho}/2``.

    One Kronecker product (the sandwich); the anticommutator goes in through
    index views, O(d^3) writes instead of two more d^4 products.
    """
    op = np.asarray(op, dtype=complex)
    half_xdx = 0.5 * (op.conj().T @ op)
    term = ops.sandwich(op, op.conj().T)
    ops.add_left_right_mult(term, -half_xdx, -half_xdx)
    return term


def build_hamiltonian(device: DeviceModel) -> np.ndarray:
    """H = sum_j nu_j Z_0 Z_j on N+1 qubits (rotating frame)."""
    n = device.n_qubits
    dim = 2 ** n
    h = np.zeros((dim, dim), dtype=complex)
    z0 = ops.embed(Z, 0, n)
    for j, (_, nu) in enumerate(device.spectators, start=1):
        h = h + nu * (z0 @ ops.embed(Z, j, n))
    return h


def build_liouvillian(device: DeviceModel) -> LiouvillianBundle:
    """L = -i[H, .] + sum_j (gamma_j D[sigma-_j] + (gamma_phi_j / 2) D[Z_j]).

    The Z dissipator dephases coherences at twice its rate, so the factor of
    one half keeps gamma_phi equal to the pure dephasing rate and preserves
    1/T2 = gamma_phi + gamma/2 across all engines.
    """
    n = device.n_qubits
    h = build_hamiltonian(device)
    jumps: list[tuple[float, np.ndarray]] = []
    all_qubits = [device.control] + [q for q, _ in device.spectators]
    for j, q in enumerate(all_qubits):
        if q.gamma > 0:
            jumps.append((q.gamma, ops.embed(SIGMA_MINUS, j, n)))
        if q.gamma_phi > 0:
            jumps.append((q.gamma_phi / 2.0, ops.embed(Z, j, n)))
    return LiouvillianBundle.from_terms(h, jumps)


def validate_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> None:
    rho = np.asarray(rho)
    if ops.hermiticity_defect(rho) > tol:
        raise PhysicalityError("rho0 is not Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        raise PhysicalityError("rho0 does not have unit trace")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -tol:
        raise PhysicalityError(f"rho0 is not positive semidefinite "
                               f"(min eigenvalue {evals.min():.2e})")


_PULSE_AXES = {"x": X, "y": Y}


def _pulse_superop(n_qubits: int, axis: str) -> np.ndarray:
    """Superoperator of an instantaneous pi rotation on the control qubit."""
    try:
        pauli = _PULSE_AXES[axis.lower()]
    except KeyError:
        raise ValueError(f"unknown pulse axis {axis!r}; expected 'x' or 'y'")
    u = -1j * pauli  # exp(-i pi/2 * P) for a Pauli P
    u_full = ops.embed(u, 0, n_qubits)
    return ops.sandwich(u_full, u_full.conj().T)


def propagate(bundle: LiouvillianBundle, rho0: np.ndarray,
              times: Sequence[float],
              pulse_times: Sequence[float] | None = None,
              pulse_axis: str = "x") -> list[np.ndarray]:
    """Evolve rho0 under exp(L t), applying instantaneous control pi pulses.

    Returns the density matrix at each requested time. Time stepping uses
    an exact matrix exponential per segment. Segment steps are cached by
    their length rounded to 12 significant digits, and a step advances by
    that rounded length, so the segments of a uniform grid or the equal
    spacings of a pulse train share one exponential even when their float
    lengths differ in the last bits. Each step is then off by at most
    5e-13 of its length, far below any engine-agreement tolerance; apart
    from that, the only error is floating point. Pulse times must be
    sorted and strictly inside (0, max(times)).
    """
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size == 0 or np.any(np.diff(times) < 0)
            or times[0] < 0):
        raise ValueError("times must be a sorted, non-negative grid")
    validate_density_matrix(rho0)

    n_qubits = int(round(np.log2(bundle.dim)))
    pulses = list(pulse_times) if pulse_times else []
    if any(t2 <= t1 for t1, t2 in zip(pulses, pulses[1:])):
        raise ValueError("pulse times must be strictly increasing")
    t_end = times[-1]
    if pulses and (pulses[0] <= 0 or pulses[-1] >= t_end):
        raise ValueError("pulse times must lie strictly inside (0, T)")
    pulse_super = _pulse_superop(n_qubits, pulse_axis) if pulses else None

    # Merge grid times and pulse times into one ordered event list.
    events = sorted(
        [(t, "grid", i) for i, t in enumerate(times)]
        + [(t, "pulse", -1) for t in pulses])

    step_cache: dict[float, np.ndarray] = {}

    def step(dt: float) -> np.ndarray:
        key = float(f"{dt:.12g}")
        if key not in step_cache:
            step_cache[key] = ops.expm(bundle.superop * key)
        return step_cache[key]

    out: list[np.ndarray | None] = [None] * len(times)
    v = ops.vectorize(np.asarray(rho0, dtype=complex))
    t_now = 0.0
    for t_ev, kind, idx in events:
        dt = t_ev - t_now
        if dt > 0:
            v = step(dt) @ v
            t_now = t_ev
        if kind == "pulse":
            v = pulse_super @ v
        else:
            out[idx] = ops.unvectorize(v)
    return out  # type: ignore[return-value]


def control_coherence(rho: np.ndarray) -> complex:
    """Tr[rho_01]: trace over spectators of the <0|.|1> control block."""
    rho = np.asarray(rho)
    d = rho.shape[0]
    ds = d // 2
    block = rho[:ds, ds:]
    return complex(np.trace(block))


def ramsey_initial_state(device: DeviceModel, s: SpectatorInit) -> np.ndarray:
    """|+><+| on the control, tensor computational states on the spectators."""
    s = parse_spectator_init(s, device.n_spectators)
    plus = np.outer(ops.KET_PLUS, ops.KET_PLUS.conj())
    factors = [plus]
    for bit in s:
        ket = ops.KET_1 if bit else ops.KET_0
        factors.append(np.outer(ket, ket.conj()))
    return ops.kron_all(factors)
