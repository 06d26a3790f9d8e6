"""Device description and exact Lindblad propagation in sector blocks.

A :class:`DeviceModel` is the single source of truth for every prediction
engine: a control qubit coupled to N spectators through always-on ZZ
interactions, each qubit with its own relaxation and pure dephasing rate.
This module builds the Hamiltonian ``H = sum_j nu_j Z_0 Z_j`` (rotating
frame, no self-energies) and the Liouvillian, and propagates density
matrices exactly with optional instantaneous X pi pulses on the control.
It also holds the types the three engines share: the pi-pulse train
(`PulseSequence`, `build_cpmg`) and the coherence trace (`CoherenceTrace`).
`lindblad_trace` is this engine's counterpart of `analytic.ramsey_trace` and
`trajectory.ensemble_trace`.

The Liouvillian is never built as a dense 4^(N+1) matrix.  Its sectors
(sets of vec(rho) indices that no term of H or of the jumps connects to the
rest) are found from the nonzero patterns of H and the jump operators, and
each sector's block is computed from them directly.  With diagonal H and
local sigma-/Z jumps there are 3^(N+1) sectors, none wider than 2^(N+1);
blocks of one size are stacked, so a step exp(L dt) costs one stacked
exponential and one batched matrix product per block size.  A pi pulse on
the control maps vec(rho) by a signed permutation.  The dense matrix is
assembled only when :attr:`LiouvillianBundle.superop` is read.

Internal units: rates in 1/s, couplings nu in rad/s, times in s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import operators as ops
from .operators import SIGMA_MINUS, X, Z


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
class PulseSequence:
    """Instantaneous pi-pulse times inside a window of length total_time.

    The train's geometry is its parity integral
    P(t) = integral from 0 to t of (-1)^(#pulses before t'), 0 <= t <= T.
    Segment k starts at `starts[k]` (0, then the pulses), P is linear with
    slope `signs[k]` inside it, `p_starts[k]` is P at its start, and
    `p_total` is P(T): T for Ramsey, 0 for CPMG.
    """

    total_time: float
    pulse_times: tuple[float, ...] = ()
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    signs: np.ndarray = field(init=False, repr=False, compare=False)
    p_starts: np.ndarray = field(init=False, repr=False, compare=False)
    p_total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Negated comparisons, so that NaN fails them.
        if not 0 < self.total_time < np.inf:
            raise ValueError("total_time must be positive and finite")
        pt = tuple(float(t) for t in self.pulse_times)
        starts = np.array((0.0,) + pt)
        if not np.all(np.diff(np.append(starts, self.total_time)) > 0):
            raise ValueError("pulse times must increase strictly in (0, T)")
        signs = (-1.0) ** np.arange(starts.size)
        p_starts = np.concatenate(
            ([0.0], np.cumsum(signs[:-1] * np.diff(starts))))
        p_total = p_starts[-1] + signs[-1] * (self.total_time - starts[-1])
        for name, value in (("pulse_times", pt), ("starts", starts),
                            ("signs", signs), ("p_starts", p_starts),
                            ("p_total", p_total)):
            object.__setattr__(self, name, value)

    @classmethod
    def ramsey(cls, total_time: float) -> "PulseSequence":
        return cls(total_time=total_time)


def build_cpmg(total_time: float, n: int) -> PulseSequence:
    """CPMG_n: n+1 equidistant pulses at (k + 1/2) T / (n+1)."""
    if n < 0:
        raise ValueError("CPMG order must be >= 0")
    tau = total_time / (n + 1)
    pulses = tuple((k + 0.5) * tau for k in range(n + 1))
    return PulseSequence(total_time=total_time, pulse_times=pulses)


@dataclass(frozen=True)
class CoherenceTrace:
    """Time grid plus complex coherence values normalized to start at 1.

    `stderr` is the per-point standard error for Monte-Carlo traces, None for
    deterministic engines.
    """

    times: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None


# A block-diagonal operator on vec(rho), as one (indices, blocks) pair per
# block size n: row k of the (m, n) array `indices` lists the vec(rho)
# indices of block k, and blocks[k] (stack shape (m, n, n)) is the operator
# restricted to them.  Every index lies in exactly one block.
Sectors = tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class LiouvillianBundle:
    """Liouvillian as its sector blocks, with its Hamiltonian and jump list."""

    hamiltonian: np.ndarray
    jump_terms: tuple[tuple[float, np.ndarray], ...]
    sectors: Sectors

    @classmethod
    def from_terms(cls, h: np.ndarray, jumps) -> "LiouvillianBundle":
        """Bundle for ``-i[h, .] + sum rate D[op]`` over (rate, op) in jumps.

        ``D[x] rho = x rho x^dag - {x^dag x, rho}/2``.  Each block entry is
        summed in a fixed order: the Hamiltonian's left and right products,
        then per jump the sandwich, the anticommutator's left and right
        products, the rate, and the total.  Each dissipator is complete
        before it is scaled and added, so rate * D[x] keeps its trace
        cancellation exact instead of mixing the rates of different jumps.
        """
        jumps = tuple(jumps)
        terms = [(rate, np.asarray(op, dtype=complex)) for rate, op in jumps]
        halves = [0.5 * (op.conj().T @ op) for _, op in terms]
        d = h.shape[0]
        labels = _component_labels(
            *_pattern_edges(d, [h] + halves, [op for _, op in terms]), d * d)
        sectors = tuple((idx, _block_entries(idx, d, h, terms, halves))
                        for idx in _group_by_size(labels))
        return cls(hamiltonian=h, jump_terms=jumps, sectors=sectors)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def superop(self) -> np.ndarray:
        """Dense d^2 x d^2 Liouvillian, assembled from the blocks per read."""
        return _assemble(self.dim ** 2, self.sectors)


def _pattern_edges(d: int, lr_ops,
                   sandwiched) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (rows, cols) that the dense Liouvillian can couple.

    An operator ``a`` entering as rho -> a rho and rho -> rho a couples
    (k*d + p, k*d + q) and (q*d + k, p*d + k) for every k and each nonzero
    a[p, q]; a sandwich x rho x^dag couples (p*d + p', q*d + q') for
    nonzero x[p, q] and x[p', q'].
    """
    k = np.arange(d)[:, None]
    rows, cols = [], []
    for a in lr_ops:
        p, q = np.nonzero(a)
        rows += [(k * d + p).ravel(), (q * d + k).ravel()]
        cols += [(k * d + q).ravel(), (p * d + k).ravel()]
    for x in sandwiched:
        p, q = np.nonzero(x)
        rows.append((p[:, None] * d + p[None, :]).ravel())
        cols.append((q[:, None] * d + q[None, :]).ravel())
    return np.concatenate(rows), np.concatenate(cols)


def _block_entries(idx: np.ndarray, d: int, h: np.ndarray, terms,
                   halves) -> np.ndarray:
    """Stacked Liouvillian blocks over the (m, n) vec(rho) index array idx.

    `terms` are the (rate, x) jumps and `halves` their x^dag x / 2.  vec
    index r = i*d + j as in ``s[i, j, k, l]`` of the dense d^2 x d^2 matrix
    (row i*d + j, column k*d + l): rho -> a rho is a[j, l] where i == k,
    rho -> rho b is b[k, i] where j == l, and x rho x^dag is
    conj(x[i, k]) x[j, l].
    """
    i, j = np.divmod(idx, d)
    ri, rj = i[:, :, None], j[:, :, None]
    ci, cj = i[:, None, :], j[:, None, :]
    same_i, same_j = ri == ci, rj == cj

    def add_left_right(term, a, b):
        term += np.where(same_i, a[rj, cj], 0)
        term += np.where(same_j, b.T[ri, ci], 0)

    blocks = np.zeros(idx.shape + idx.shape[-1:], dtype=complex)
    add_left_right(blocks, -1j * h, 1j * h)
    for (rate, op), half_xdx in zip(terms, halves):
        term = op.conj()[ri, ci] * op[rj, cj]
        add_left_right(term, -half_xdx, -half_xdx)
        term *= rate
        blocks += term
    return blocks


def _component_labels(rows: np.ndarray, cols: np.ndarray,
                      n: int) -> np.ndarray:
    """Smallest index of each index's connected component of the edges.

    Label propagation: every index takes the smallest label among its
    neighbours, then follows its label's own label (pointer jumping),
    until nothing changes.
    """
    labels = np.arange(n)
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _group_by_size(labels: np.ndarray) -> list[np.ndarray]:
    """The components as (m, n) index arrays, one per size n, ascending.

    Each component's indices are in increasing order, and components of one
    size are in the order of their smallest index.
    """
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    by_size: dict[int, list[np.ndarray]] = {}
    for comp in np.split(order, cuts):
        by_size.setdefault(comp.size, []).append(comp)
    return [np.array(by_size[n]) for n in sorted(by_size)]


def _assemble(size: int, sectors: Sectors) -> np.ndarray:
    """Dense size x size matrix of a block-diagonal operator."""
    out = np.zeros((size, size), dtype=complex)
    for idx, blocks in sectors:
        out[idx[:, :, None], idx[:, None, :]] = blocks
    return out


def _step_propagator(bundle: LiouvillianBundle, dt: float) -> Sectors:
    """exp(L dt) as blocks: one stacked exponential per block size."""
    return tuple((idx, ops.expm(blocks * dt))
                 for idx, blocks in bundle.sectors)


def _apply(sectors: Sectors, v: np.ndarray) -> np.ndarray:
    """Block-diagonal operator times vector, one batched product per size."""
    out = np.empty_like(v)
    for idx, blocks in sectors:
        out[idx] = np.matmul(blocks, v[idx][:, :, None])[:, :, 0]
    return out


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


def _pulse_permutation(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """An instantaneous X pi pulse on the control as a signed permutation.

    The pulse U = exp(-i pi/2 X) = -i X has one nonzero per row,
    U[j, c_j] = u_j, so rho -> U rho U^dag sends vec index i*d + j to
    ``sign * v[perm]`` with perm = c_i*d + c_j and sign = conj(u_i) u_j,
    which is +-1.
    """
    u = ops.embed(-1j * X, 0, n_qubits)
    d = u.shape[0]
    col = np.argmax(u != 0, axis=1)
    val = u[np.arange(d), col]
    perm = (col[:, None] * d + col[None, :]).ravel()
    sign = (val.conj()[:, None] * val[None, :]).ravel()
    return perm, sign


def propagate(bundle: LiouvillianBundle, rho0: np.ndarray,
              times: Sequence[float],
              pulse_times: Sequence[float] | None = None) -> list[np.ndarray]:
    """Evolve rho0 under exp(L t), applying instantaneous control X pi pulses.

    Returns the density matrix at each requested time. Time stepping uses
    an exact matrix exponential per segment, taken block by block over the
    Liouvillian's sectors. Segment steps are cached by their length
    rounded to 12 significant digits, and a step advances by that rounded
    length, so the segments of a uniform grid or the equal spacings of a
    pulse train share one exponential even when their float lengths differ
    in the last bits. Each step is then off by at most 5e-13 of its length,
    far below any engine-agreement tolerance; apart from that, the only
    error is floating point. Pulse times must be sorted and strictly inside
    (0, max(times)).
    """
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size == 0 or np.any(np.diff(times) < 0)
            or times[0] < 0):
        raise ValueError("times must be a sorted, non-negative grid")
    validate_density_matrix(rho0)

    n_qubits = int(round(np.log2(bundle.dim)))
    pulses = [] if pulse_times is None else list(pulse_times)
    if any(t2 <= t1 for t1, t2 in zip(pulses, pulses[1:])):
        raise ValueError("pulse times must be strictly increasing")
    t_end = times[-1]
    if pulses and (pulses[0] <= 0 or pulses[-1] >= t_end):
        raise ValueError("pulse times must lie strictly inside (0, T)")
    if pulses:
        perm, sign = _pulse_permutation(n_qubits)

    # Merge grid times and pulse times into one ordered event list.
    events = sorted(
        [(t, "grid", i) for i, t in enumerate(times)]
        + [(t, "pulse", -1) for t in pulses])

    step_cache: dict[float, Sectors] = {}

    def step(dt: float) -> Sectors:
        key = float(f"{dt:.12g}")
        if key not in step_cache:
            step_cache[key] = _step_propagator(bundle, key)
        return step_cache[key]

    out: list[np.ndarray | None] = [None] * len(times)
    v = ops.vectorize(np.asarray(rho0, dtype=complex))
    t_now = 0.0
    for t_ev, kind, idx in events:
        dt = t_ev - t_now
        if dt > 0:
            v = _apply(step(dt), v)
            t_now = t_ev
        if kind == "pulse":
            v = sign * v[perm]
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


def lindblad_trace(device: DeviceModel, s: SpectatorInit, times,
                   cpmg_order: int | None = None) -> CoherenceTrace:
    """Lindblad-engine trace over a grid of total times, starting at 1.

    The value is 2 Tr[rho_01] (the raw initial coherence is 1/2), so it is
    1 at t = 0 up to rounding.  Ramsey propagates the sorted grid in one
    call.  With `cpmg_order` set, every T > 0 is propagated on its own under
    a CPMG_n train over [0, T], as in `analytic.ramsey_trace` and
    `trajectory.ensemble_trace`.
    """
    times = np.asarray(times, dtype=float)
    bundle = build_liouvillian(device)
    rho0 = ramsey_initial_state(device, s)
    if cpmg_order is None:
        states = propagate(bundle, rho0, times)
    else:
        states = [rho0] * times.size
        for k, T in enumerate(times):
            if T != 0:
                train = build_cpmg(T, cpmg_order).pulse_times
                states[k] = propagate(bundle, rho0, [T], pulse_times=train)[0]
    return CoherenceTrace(times=times, values=2.0 * np.array(
        [control_coherence(rho) for rho in states]))
