"""Randomized benchmarking under spectator decay.

Conditional control-qubit channels are obtained by projecting the two-qubit
Lindblad propagator onto a spectator initial/final state pair; they are
diagonal, diag(1, lambda, lambda*, 1), in the column-stacked basis.  The RB
decay constant of a channel is p = (Tr - 1)/3.

Two engines give the RB survival of one spectator preparation.  Each
spectator is tracked classically: it survives each gate with probability
q = e^{-gamma t_gate} (eigenvalue lambda_11), decays during one gate
(lambda_10) or has decayed before it (lambda_00); the gate's error is the
product over spectators.  `simulate_rb` samples finite sets of Clifford
sequences and decay times.  `average_survival` gives the exact average over
both.  With uniform random Cliffords C_k, the products D_k = C_k...C_1 are
independent and uniform, and the Clifford group is a unitary 2-design, so
each gate's error E_k is twirled to a depolarizing channel with
p_k = (1 + 2 Re lambda_k)/3 (Magesan, Gambetta & Emerson, PRL 106, 180504
(2011)).  The recovery gate's error is diagonal and leaves <0|rho|0>
unchanged.  Given the spectator history, the survival after m gates is
therefore 1/2 + 1/2 prod_{k<=m} p_k, and its average over histories is
1/2 + 1/2 sum_branches w 1^T M^m e_branch, with M the transition matrix of
the 2^N excited-spectator configurations weighted by each step's p.  Both
engines show that RB is insensitive to spectator-decay-induced dephasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import operators as ops
from .model import DeviceModel, QubitParams
from .model import build_liouvillian


class ForbiddenTransitionError(ValueError):
    """Spectator excitation 0 -> 1 cannot occur at zero temperature."""


@dataclass(frozen=True)
class ConditionalChannel:
    """Control-qubit channel conditioned on spectator initial/final bits.

    `superop` is the normalized 4x4 map on vec(rho_c); `norm` is the
    probability of the (i -> j) spectator transition.
    """

    i: int
    j: int
    superop: np.ndarray
    norm: float

    @property
    def lam(self) -> complex:
        """Off-diagonal eigenvalue: diag(superop) = (1, lam, lam*, 1)."""
        return complex(self.superop[1, 1])


def conditional_channel(i: int, j: int, nu: float, gamma1: float,
                        t_gate: float) -> ConditionalChannel:
    """Project the two-qubit propagator onto spectator states |i> -> |j>.

    The two-qubit device has no control dissipation; t_gate > 0.
    """
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError("spectator bits must be 0 or 1")
    if t_gate <= 0:
        raise ValueError("t_gate must be positive")
    if (i, j) == (0, 1):
        raise ForbiddenTransitionError(
            "spectator transition 0 -> 1 is forbidden at zero temperature")
    device = DeviceModel(control=QubitParams(label="control"),
                         spectators=((QubitParams(gamma=gamma1,
                                                  label="spectator"), nu),))
    prop = ops.expm(build_liouvillian(device).superop * t_gate)

    bra_j = (ops.KET_1 if j else ops.KET_0).conj().reshape(1, 2)
    # vec index of the 4x4 rho decomposes as (c_col, s_col, c_row, s_row).
    project = ops.kron_all([ops.I2, bra_j, ops.I2, bra_j])
    ket_i = ops.KET_1 if i else ops.KET_0
    rho_s = np.outer(ket_i, ket_i.conj())

    lifted = np.empty((4, 4), dtype=complex)
    for m in range(4):
        rho_c = ops.unvectorize(np.eye(4)[m])
        lifted[:, m] = project @ prop @ ops.vectorize(np.kron(rho_c, rho_s))
    norm = lifted[0, 0].real
    if norm <= 1e-14:
        raise ForbiddenTransitionError(
            f"spectator transition {i} -> {j} has zero probability")
    return ConditionalChannel(i=i, j=j, superop=lifted / norm, norm=norm)


def lambda_analytic(i: int, j: int, nu: float, gamma1: float,
                    t: float) -> complex:
    """Closed-form channel eigenvalues lambda_00, lambda_11, lambda_10."""
    if (i, j) == (0, 0):
        return np.exp(2j * nu * t)
    if (i, j) == (1, 1):
        return np.exp(-2j * nu * t)
    if (i, j) == (1, 0):
        if gamma1 <= 0:
            raise ValueError("lambda_10 requires gamma1 > 0 (relaxation must "
                             "be possible)")
        num = gamma1 * (np.exp(2j * nu * t)
                        - np.exp(-(gamma1 + 2j * nu) * t))
        den = (gamma1 + 4j * nu) * (1.0 - np.exp(-gamma1 * t))
        return complex(num / den)
    raise ForbiddenTransitionError(
        "spectator transition 0 -> 1 is forbidden at zero temperature")


def transition_probability(i: int, j: int, gamma1: float, t: float) -> float:
    """N_ij: probability of the spectator transition over a window t."""
    survive = np.exp(-gamma1 * t)
    return {(0, 0): 1.0, (0, 1): 0.0, (1, 1): survive,
            (1, 0): 1.0 - survive}[(i, j)]


def rb_decay_constant(chan) -> float:
    """p = (Tr[superop] - 1) / 3 for a trace-preserving single-qubit channel."""
    superop = chan.superop if isinstance(chan, ConditionalChannel) else chan
    return float((np.trace(superop).real - 1.0) / 3.0)


def p_experimental(i: int, nu: float, t: float) -> float:
    """RB decay constants in the experimental (ground-state) calibration frame."""
    if i == 0:
        return 1.0
    if i == 1:
        return (1.0 + 2.0 * np.cos(4.0 * nu * t)) / 3.0
    raise ValueError("spectator bit must be 0 or 1")


@dataclass(frozen=True)
class CliffordGroup:
    """The 24 single-qubit Cliffords with composition and inverse tables."""

    unitaries: tuple[np.ndarray, ...]
    compose: np.ndarray   # compose[a, b] = index of U_a @ U_b
    inverse: np.ndarray   # inverse[a] = index of U_a^dagger

    def __len__(self) -> int:
        return len(self.unitaries)


def _canonical_phase(u: np.ndarray) -> np.ndarray:
    """Fix the global phase so the first nonzero entry is positive real."""
    flat = u.ravel()
    pivot = flat[np.argmax(np.abs(flat) > 1e-9)]
    return u * (abs(pivot) / pivot)


def _key(u: np.ndarray) -> bytes:
    # Adding complex zero maps -0.0 to +0.0 in both components, so equal
    # matrices never hash to different byte strings.
    return (np.round(_canonical_phase(u), 9) + (0.0 + 0.0j)).tobytes()


@lru_cache(maxsize=1)
def clifford_group() -> CliffordGroup:
    """Generate the group from {H, S} by closure; order 24."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    elements: list[np.ndarray] = [np.eye(2, dtype=complex)]
    index = {_key(elements[0]): 0}
    frontier = [elements[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for g in (h, s):
                v = _canonical_phase(g @ u)
                k = _key(v)
                if k not in index:
                    index[k] = len(elements)
                    elements.append(v)
                    nxt.append(v)
        frontier = nxt
    if len(elements) != 24:
        raise RuntimeError(f"Clifford closure produced {len(elements)} elements")
    n = len(elements)
    compose = np.empty((n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            compose[a, b] = index[_key(elements[a] @ elements[b])]
    inverse = np.empty(n, dtype=int)
    for a in range(n):
        inverse[a] = index[_key(elements[a].conj().T)]
    return CliffordGroup(unitaries=tuple(elements), compose=compose,
                         inverse=inverse)


@dataclass
class RBCurve:
    """Sequence lengths and averaged survival probabilities.

    `stderr` and `n_seq` are None for the exact average, which samples no
    sequences.
    """

    lengths: np.ndarray
    survival: np.ndarray
    stderr: np.ndarray | None
    n_seq: int | None


def _branch_weights(init: str, n_spec: int) -> list[tuple[tuple[int, ...], float]]:
    if init in ("0", "zero"):
        return [(tuple([0] * n_spec), 1.0)]
    if init in ("1", "one"):
        return [(tuple([1] * n_spec), 1.0)]
    if len(init) == n_spec and set(init) <= {"0", "1"}:
        return [(tuple(int(c) for c in init), 1.0)]
    if init in ("+", "plus"):
        # |+> preparations enter as an equal classical mixture of Z branches;
        # inter-branch coherences do not survive the twirl for this observable.
        weight = 0.5 ** n_spec
        return [(bits, weight) for bits in product((0, 1), repeat=n_spec)]
    raise ValueError(f"unknown spectator preparation {init!r}")


def _rb_lengths(lengths) -> np.ndarray:
    lengths = np.asarray(lengths, dtype=int)
    if np.any(lengths < 1):
        raise ValueError("RB sequence lengths must be >= 1")
    return lengths


def _gate_eigenvalues(device: DeviceModel, t_gate: float, frame: str):
    """Per-spectator gate eigenvalues (lambda_00, lambda_11, lambda_10).

    The 'experimental' frame divides out the ground-state ZZ phase of each
    gate.  A spectator with gamma = 0 never decays; its lambda_10 repeats
    lambda_11 so that the table stays finite.
    """
    if frame not in ("bare", "experimental"):
        raise ValueError(f"unknown frame {frame!r}")
    nus = device.nus
    gammas = device.spectator_gammas
    frame_phase = np.exp(-2j * nus * t_gate) if frame == "experimental" \
        else np.ones(device.n_spectators, dtype=complex)
    lam00 = np.array([lambda_analytic(0, 0, nu, g, t_gate)
                      for nu, g in zip(nus, gammas)]) * frame_phase
    lam11 = np.array([lambda_analytic(1, 1, nu, g, t_gate)
                      for nu, g in zip(nus, gammas)]) * frame_phase
    lam10 = np.array([lambda_analytic(1, 0, nu, g, t_gate) if g > 0
                      else lam11[k] for k, (nu, g) in
                      enumerate(zip(nus, gammas))]) * frame_phase
    return lam00, lam11, lam10


def average_survival(device: DeviceModel, init: str, lengths, t_gate: float,
                     frame: str = "experimental") -> RBCurve:
    """Exact sequence-averaged RB survival of the process `simulate_rb` samples.

    The excited spectators form a Markov chain over 2^N configurations c.
    One gate takes c to c' with probability P(c -> c') and, twirled by the
    Clifford average, multiplies the survival's decaying part by
    (1 + 2 Re prod_j lambda_j(c_j -> c'_j)) / 3 (module docstring).  So
    S(m) = 1/2 + 1/2 1^T M^m v0, where M holds both factors and v0 holds the
    preparation's branch weights; one vector is carried across the sorted
    lengths.
    """
    lam00, lam11, lam10 = _gate_eigenvalues(device, t_gate, frame)
    lengths = _rb_lengths(lengths)
    n_spec = device.n_spectators
    survive = np.exp(-device.spectator_gammas * t_gate)

    configs = list(product((0, 1), repeat=n_spec))
    excited = np.array(configs, dtype=bool).reshape(len(configs), n_spec)
    # step[c', c]: c is the configuration before a gate, c' the one after.
    to, frm = excited[:, None, :], excited[None, :, :]
    stays, decays = to & frm, frm & ~to
    prob = np.where(stays, survive, np.where(decays, 1.0 - survive, 1.0))
    prob = prob.prod(axis=-1) * ~(to & ~frm).any(axis=-1)
    lam = np.where(stays, lam11, np.where(decays, lam10, lam00)).prod(axis=-1)
    step = prob * (1.0 + 2.0 * lam.real) / 3.0

    vec = np.zeros(len(configs))
    for bits, weight in _branch_weights(init, n_spec):
        vec[configs.index(bits)] += weight
    survival = np.empty(lengths.size)
    done = 0
    for li in np.argsort(lengths, kind="stable"):
        vec = np.linalg.matrix_power(step, int(lengths[li]) - done) @ vec
        done = int(lengths[li])
        survival[li] = 0.5 + 0.5 * vec.sum()
    return RBCurve(lengths=lengths, survival=survival, stderr=None,
                   n_seq=None)


def _apply_diag_channel(rho: np.ndarray, lam: np.ndarray) -> None:
    """In-place diag(1, lam, lam*, 1) channel on a batch of 2x2 states."""
    rho[..., 1, 0] *= lam
    rho[..., 0, 1] *= lam.conj()


def simulate_rb(device: DeviceModel, init: str, lengths, n_seq: int,
                t_gate: float, frame: str = "experimental",
                seed: int = 0) -> RBCurve:
    """Clifford-level RB with per-gate conditional spectator-decay channels.

    Each spectator is tracked classically: it survives each gate window with
    probability e^{-gamma t_gate}; its channel eigenvalue is lambda_11 before
    the decay gate, lambda_10 during it, and lambda_00 afterwards.  The error
    channel (including on the recovery gate) is the product of per-spectator
    diagonal channels.  The 'experimental' frame divides out the ground-state
    ZZ phase per gate.  `average_survival` is the exact mean of this process.

    Random numbers are drawn per sequence, in order: the m gate indices, then
    one decay time per excited (branch, spectator) pair.  All sequences of
    one length are then propagated together as a (sequence, branch) batch,
    one gate position at a time.
    """
    lam00, lam11, lam10 = _gate_eigenvalues(device, t_gate, frame)
    lengths = _rb_lengths(lengths)
    group = clifford_group()
    unitaries = np.stack(group.unitaries)
    rng = np.random.Generator(np.random.Philox(key=seed))

    n_spec = device.n_spectators
    gammas = device.spectator_gammas

    branches = _branch_weights(init, n_spec)
    n_branch = len(branches)
    weights = np.array([w for _, w in branches])
    excited = np.array([bits for bits, _ in branches], dtype=bool)
    # Excited (branch, spectator) pairs that can decay, in draw order.
    rows, cols = np.nonzero(excited & (gammas > 0))
    scales = 1.0 / gammas[cols]
    ket0 = np.outer(ops.KET_0, ops.KET_0.conj())

    survival = np.empty(lengths.size)
    stderr = np.empty(lengths.size)
    for li, m in enumerate(lengths):
        total_gates = m + 1
        gates = np.empty((n_seq, m), dtype=int)
        # Decay gate index per (sequence, branch, spectator); 1-based,
        # 0 = no decay within the sequence.
        decay_gate = np.zeros((n_seq, n_branch, n_spec), dtype=int)
        for sidx in range(n_seq):
            gates[sidx] = rng.integers(0, len(group), size=m)
            if scales.size:
                k = rng.exponential(scales) // t_gate + 1
                decay_gate[sidx, rows, cols] = np.where(k <= total_gates,
                                                        k, 0)
        net = np.zeros(n_seq, dtype=int)
        for g_pos in range(m):
            net = group.compose[gates[:, g_pos], net]
        all_gates = np.column_stack([gates, group.inverse[net]])

        rho = np.zeros((n_seq, n_branch, 2, 2), dtype=complex)
        rho[..., 0, 0] = 1.0
        for g_pos in range(total_gates):
            u = unitaries[all_gates[:, g_pos]]
            rho = np.einsum("sab,snbc,sdc->snad", u, rho, u.conj())
            gate_no = g_pos + 1
            lam = np.where(
                excited & ((decay_gate == 0) | (decay_gate > gate_no)), lam11,
                np.where(excited & (decay_gate == gate_no), lam10, lam00))
            _apply_diag_channel(rho, lam.prod(axis=-1))

        per_seq = np.einsum("n,snab,ba->s", weights, rho, ket0).real
        survival[li] = per_seq.mean()
        stderr[li] = per_seq.std(ddof=1) / np.sqrt(n_seq) if n_seq > 1 else 0.0
    return RBCurve(lengths=lengths, survival=survival, stderr=stderr,
                   n_seq=n_seq)
