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

The Liouvillian is never built as a dense 4^(N+1) matrix, nor is any
operator on the 2^(N+1)-dimensional state space: `LiouvillianBundle(device)`
holds H as its diagonal and each jump as a 2 x 2 operator on one qubit.
Its sectors (sets of vec(rho) indices that no term connects to the rest)
follow in closed form from one fact: relaxation of a qubit joins |1><1| to
|0><0| on that qubit, and no other term joins two indices.  There are
3^R 4^(N+1-R) sectors when R qubits relax, none wider than 2^R.  Each
sector is enumerated from its label; its block is a diagonal summed from
the local operators plus relaxation's one-bit entries.  Blocks of one size
are stacked, so a step exp(L dt) costs one stacked exponential and one
batched matrix product per block size.  A pi pulse on the control is a
permutation of vec(rho).  The dense matrix is assembled only when
:attr:`LiouvillianBundle.superop` is read.

Given seed indices, the bundle enumerates only the sectors that hold a
seed.  `lindblad_trace` seeds it with the entries that `control_coherence`
reads, one sector 2^N wide, and for a pulse train also with their images
under a pi pulse, a second sector; either gives the full bundle's
coherence to the last bit.  It reads the coherence from vec(rho) at each
grid time and keeps no state per point; `propagate` returns the states.

Internal units: rates in 1/s, couplings nu in rad/s, times in s.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import operators as ops
from .operators import SIGMA_MINUS, Z


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


def build_cpmg(total_time: float, n: int | None) -> PulseSequence:
    """CPMG_n: n+1 equidistant pulses at (k + 1/2) T / (n+1).

    n = None is the Ramsey train, `PulseSequence(total_time)`.
    """
    if n is None:
        return PulseSequence(total_time)
    if n < 0:
        raise ValueError("CPMG order must be >= 0")
    tau = total_time / (n + 1)
    pulses = tuple((k + 0.5) * tau for k in range(n + 1))
    return PulseSequence(total_time=total_time, pulse_times=pulses)


def time_grid(times) -> np.ndarray:
    """`times` as a float array, which every engine's trace and `propagate`
    accept only as a grid: non-empty, 1-D, finite, non-negative and
    non-decreasing."""
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times))
            or times[0] < 0 or np.any(np.diff(times) < 0)):
        raise ValueError("times must be a sorted, non-negative grid")
    return times


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
# restricted to them.  An index lies in at most one block; one in none is
# mapped to 0.
Sectors = tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class LiouvillianBundle:
    """The device Liouvillian
    L = -i[H, .] + sum_j (gamma_j D[sigma-_j] + (gamma_phi_j / 2) D[Z_j]),
    held as its sector blocks.

    ``D[x] rho = x rho x^dag - {x^dag x, rho}/2``.  The Z dissipator
    dephases coherences at twice its rate, so the factor of one half keeps
    gamma_phi equal to the pure dephasing rate and preserves
    1/T2 = gamma_phi + gamma/2 across all engines.  `hamiltonian` is the
    diagonal of H, and each of `jump_terms` is (rate, site, x): the 2 x 2
    operator x on qubit `site` (0 is the control, the leading bit of a
    basis index).  No d x d operator is formed.

    Each diagonal entry is summed in a fixed order: the Hamiltonian's left
    and right products, then per jump the sandwich, the anticommutator's
    left and right products, the rate, and the total.  Each dissipator is
    complete before it is scaled and added, so rate * D[x] keeps its trace
    cancellation exact instead of mixing the rates of different jumps.

    With `seeds` (vec(rho) indices, integers in [0, d^2)), only the sectors
    that hold a seed are kept; they are those sectors of the full bundle,
    in the same order with the same blocks; empty seeds keep none.  L maps
    each sector into itself, so the kept ones evolve exactly; `superop` and
    `propagate` give 0 on every other index.
    """

    device: DeviceModel
    seeds: InitVar[np.ndarray | None] = None
    hamiltonian: np.ndarray = field(init=False, repr=False, compare=False)
    jump_terms: tuple[tuple[float, int, np.ndarray], ...] = field(
        init=False, repr=False, compare=False)
    sectors: Sectors = field(init=False, repr=False, compare=False)

    def __post_init__(self, seeds):
        device = self.device
        d = 2 ** device.n_qubits
        jumps, relaxing, gamma = [], 0, np.zeros(d)
        for site, q in enumerate([device.control]
                                 + [q for q, _ in device.spectators]):
            if q.gamma > 0:
                jumps.append((q.gamma, site, SIGMA_MINUS))
                relaxing |= d >> (site + 1)
                gamma[d >> (site + 1)] = q.gamma
            if q.gamma_phi > 0:
                jumps.append((q.gamma_phi / 2.0, site, Z))
        seeds = np.arange(d * d) if seeds is None else np.ravel(seeds)
        if seeds.size and (seeds.dtype.kind not in "iu"
                           or not 0 <= seeds.min() <= seeds.max() < d * d):
            raise ValueError(f"seeds must be integers in [0, {d * d})")
        # Relaxation of qubit q joins the index i*d + j with bit q set in
        # both i and j to the one with it clear in both, and no other term
        # joins two indices.  So a sector is the indices that differ only
        # in the relaxing bits on which i and j agree.  Its label, its
        # smallest member, clears those bits, and its members add
        # (d + 1) * S to it for the subsets S of them, S ascending.
        i, j = np.divmod(seeds.astype(np.int64), d)
        agree = relaxing & ~(i ^ j)
        labels, first = np.unique((i & ~agree) * d + (j & ~agree),
                                  return_index=True)
        agree = agree[first]
        width = sum(agree >> b & 1 for b in range(device.n_qubits))
        h = build_hamiltonian(device)
        sectors = []
        for k in np.unique(width):
            idx, free = labels[width == k, None], agree[width == k]
            for _ in range(k):
                low = free & -free
                free ^= low
                idx = np.hstack([idx, idx + (d + 1) * low[:, None]])
            sectors.append((idx, _block_entries(idx, d, h, jumps, gamma)))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jump_terms", tuple(jumps))
        object.__setattr__(self, "sectors", tuple(sectors))

    @property
    def dim(self) -> int:
        return self.hamiltonian.size

    @property
    def superop(self) -> np.ndarray:
        """Dense d^2 x d^2 Liouvillian, assembled from the blocks per read."""
        return _assemble(self.dim ** 2, self.sectors)


def _block_entries(idx: np.ndarray, d: int, h: np.ndarray, jumps,
                   gamma: np.ndarray) -> np.ndarray:
    """Stacked Liouvillian blocks over the (m, 2^k) array idx of sectors.

    `h` is the diagonal of H, `jumps` the (rate, site, x) terms and
    `gamma[b]` the relaxation rate of bit b.  Member t = idx[:, t] is the
    vec index i*d + j.  Its diagonal entry is -i h[j] + i h[i] plus, per
    jump, rate * (conj(x[a, a]) x[b, b] + y[b, b] + y[a, a]), where
    y = -x^dag x / 2 and a, b are the site's bits of i and j.  The only
    other entries are relaxation's: member t | 2^q sets the sector's q-th
    bit in both i and j of member t, and decays into it at that bit's rate.
    """
    i, j = np.divmod(idx, d)
    diagonal = np.zeros(idx.shape, dtype=complex)
    diagonal += (-1j * h)[j]
    diagonal += (1j * h)[i]
    for rate, site, x in jumps:
        bit = d >> (site + 1)
        a, b = (i & bit) // bit, (j & bit) // bit
        minus_half = -0.5 * (x.conj().T @ x)
        diagonal += (x.conj()[a, a] * x[b, b] + minus_half[b, b]
                     + minus_half[a, a]) * rate
    blocks = np.zeros(idx.shape + idx.shape[-1:], dtype=complex)
    t = np.arange(idx.shape[1])
    blocks[:, t, t] = diagonal
    for q in range(t.size.bit_length() - 1):
        low = t[(t & 1 << q) == 0]
        qbit = (idx[:, 1 << q] - idx[:, 0]) // (d + 1)
        blocks[:, low, low | 1 << q] = gamma[qbit][:, None]
    return blocks


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
    """Block-diagonal operator times vector, one batched product per size;
    0 on the indices that no sector holds."""
    out = np.zeros(v.shape, dtype=v.dtype)
    for idx, blocks in sectors:
        out[idx] = np.matmul(blocks, v[idx][:, :, None])[:, :, 0]
    return out


def build_hamiltonian(device: DeviceModel) -> np.ndarray:
    """Diagonal of H = sum_j nu_j Z_0 Z_j on N+1 qubits (rotating frame),
    over the basis indices; H has no other entries."""
    n = device.n_qubits
    index = np.arange(2 ** n)

    def z(site):  # Z of qubit `site` on each basis state
        return 1 - 2 * ((index >> (n - 1 - site)) & 1)

    h = np.zeros(2 ** n)
    for j, (_, nu) in enumerate(device.spectators, start=1):
        h = h + nu * (z(0) * z(j))
    return h


def build_liouvillian(device: DeviceModel,
                      seeds: np.ndarray | None = None) -> LiouvillianBundle:
    """The device's `LiouvillianBundle`; with `seeds`, it holds only the
    sectors of those vec(rho) indices."""
    return LiouvillianBundle(device, seeds)


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise PhysicalityError unless rho is a density matrix, to 1e-10."""
    rho = np.asarray(rho)
    if ops.hermiticity_defect(rho) > 1e-10:
        raise PhysicalityError("rho0 is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise PhysicalityError("rho0 does not have unit trace")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -1e-10:
        raise PhysicalityError(f"rho0 is not positive semidefinite "
                               f"(min eigenvalue {evals.min():.2e})")


def _pulse(v: np.ndarray, d: int) -> np.ndarray:
    """vec(rho) after an instantaneous X pi pulse on the control.

    The pulse U = exp(-i pi/2 X) = -i X flips the control, the leading bit
    of a basis index j, so U[j, j ^ (d/2)] = -i for every j.  rho -> U rho
    U^dag then sends vec index i*d + j to index (i ^ d/2)*d + (j ^ d/2),
    which is (i*d + j) ^ (d + 1)*(d/2); the phases cancel, since
    conj(-i)(-i) = 1.  Reversing the leading axis of both i and j in a
    (2, d/2, 2, d/2) view is that XOR, and forms no index array.
    """
    return v.reshape(2, d // 2, 2, d // 2)[::-1, :, ::-1].ravel()


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
    error is floating point. Pulse times must form a `PulseSequence` over
    [0, max(times)]: strictly increasing inside (0, max(times)).  At a grid
    time equal to a pulse time, the returned state is the one before that
    pulse.  A bundle built with seeds evolves only its sectors: after the
    first step, the returned matrices are 0 on every vec(rho) index outside
    them.
    """
    times = time_grid(times)
    validate_density_matrix(rho0)
    pulses = () if pulse_times is None else tuple(pulse_times)
    if pulses:
        pulses = PulseSequence(times[-1], pulses).pulse_times
    v0 = ops.vectorize(np.asarray(rho0, dtype=complex))
    return [ops.unvectorize(v) for v in _evolve(bundle, v0, times, pulses)]


def _evolve(bundle: LiouvillianBundle, v: np.ndarray, times: np.ndarray,
            pulses: Sequence[float]) -> Iterator[np.ndarray]:
    """Yield vec(rho) at each grid time, as `propagate` describes; the
    caller has checked the grid, the state and the pulse train."""
    # Merge grid times and pulse times into one ordered event list; a grid
    # time equal to a pulse time comes first, and reads the state before
    # the pulse.
    grid, pulse = 0, 1
    events = sorted([(t, grid) for t in times]
                    + [(t, pulse) for t in pulses])
    step_cache: dict[float, Sectors] = {}
    t_now = 0.0
    for t_ev, kind in events:
        dt = t_ev - t_now
        if dt > 0:
            key = float(f"{dt:.12g}")
            if key not in step_cache:
                step_cache[key] = _step_propagator(bundle, key)
            v = _apply(step_cache[key], v)
            t_now = t_ev
        if kind == pulse:
            v = _pulse(v, bundle.dim)
        else:
            yield v


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
    # |+><+| written out: KET_PLUS entries square to 0.4999999999999999, and
    # the trace must read exactly 1 at t = 0 as the other engines do.
    factors = [np.full((2, 2), 0.5)]
    for bit in s:
        ket = ops.KET_1 if bit else ops.KET_0
        factors.append(np.outer(ket, ket.conj()))
    return ops.kron_all(factors)


def lindblad_trace(device: DeviceModel, s: SpectatorInit, times,
                   cpmg_order: int | None = None) -> CoherenceTrace:
    """Lindblad-engine trace over a grid of total times, starting at 1.

    The value is 2 Tr[rho_01] (the raw initial coherence is 1/2), so it is
    exactly 1 at t = 0.  Ramsey steps through the sorted grid once.  With
    `cpmg_order` set, every T > 0 is stepped on its own under a CPMG_n
    train over [0, T], as in `analytic.ramsey_trace` and
    `trajectory.ensemble_trace`.  The engine reads the coherence from
    vec(rho) at each grid time, sum_k v[(d/2 + k) d + k] (the entries
    rho[k, d/2 + k] that `control_coherence` sums), and forms no density
    matrix: vec(rho0) is written from its four entries.  The bundle holds
    only the sector of those entries, and with `cpmg_order` set also the
    sector a pulse maps it to: the values are those of the full bundle to
    the last bit.
    """
    times = time_grid(times)
    s = parse_spectator_init(s, device.n_spectators)
    d = 2 ** device.n_qubits
    k = np.arange(d // 2)
    read = (d // 2 + k) * d + k
    seeds = (read if cpmg_order is None
             else np.concatenate([read, read ^ (d + 1) * (d // 2)]))
    bundle = build_liouvillian(device, seeds)
    # vec(rho0) of `ramsey_initial_state` without forming rho0: its only
    # entries are rho0[a, b] = 1/2 for a, b in {s, s + d/2}, at b*d + a.
    spec = sum(bit << j for j, bit in enumerate(reversed(s)))
    ab = np.array([spec, spec + d // 2])
    v0 = np.zeros(d * d, dtype=complex)
    v0[(ab[:, None] * d + ab[None, :]).ravel()] = 0.5

    def coherence(v: np.ndarray) -> complex:
        return complex(v[read].sum())

    if cpmg_order is None:
        values = [coherence(v) for v in _evolve(bundle, v0, times, ())]
    else:
        values = [coherence(v0)] * times.size
        for k, T in enumerate(times):
            if T > 0:
                train = build_cpmg(T, cpmg_order).pulse_times
                v, = _evolve(bundle, v0, times[k:k + 1], train)
                values[k] = coherence(v)
    return CoherenceTrace(times=times, values=2.0 * np.array(values))
