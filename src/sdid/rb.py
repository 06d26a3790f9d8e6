"""Randomized benchmarking under spectator decay.

Conditional control-qubit channels are obtained by projecting the two-qubit
Lindblad propagator onto a spectator initial/final state pair; they are
diagonal, diag(1, lambda, lambda*, 1), in the column-stacked basis.  The RB
decay constant of a channel is p = (Tr - 1)/3.

Two engines give the RB survival of one spectator preparation.  Each
spectator is tracked classically: over one gate it stays in |0> (history
code 0, eigenvalue lambda_00), stays excited with probability
q = e^{-gamma t_gate} (code 1, lambda_11) or decays (code 2, lambda_10); the
code picks the spectator's row of `_gate_table`, and the gate's error is the
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

The RB model leaves out the control's own T1 and T2 (141 and 241 us on the
test suite's device B): every gate error comes from the spectators, while
`sdid ramsey` includes the control's decay.  With the control's channel in
each gate, a dense N=3 reference differed from `average_survival` by
0.066-0.076 in survival at 20 ns gates, for every preparation and frame.
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

    # vec index of the 4x4 rho decomposes as (c_col, s_col, c_row, s_row):
    # keep spectator |j><j| out and |i><i| in, control axes free.
    lifted = prop.reshape((2,) * 8)[:, j, :, j, :, i, :, i].reshape(4, 4)
    norm = lifted[0, 0].real
    if norm <= 1e-14:
        raise ForbiddenTransitionError(
            f"spectator transition {i} -> {j} has zero probability")
    return ConditionalChannel(superop=lifted / norm, norm=norm)


def lambda_analytic(i: int, j: int, nu, gamma1, t: float):
    """Closed-form channel eigenvalues lambda_00, lambda_11, lambda_10; `nu`
    and `gamma1` may be arrays over spectators."""
    if (i, j) == (0, 0):
        return np.exp(2j * nu * t)
    if (i, j) == (1, 1):
        return np.exp(-2j * nu * t)
    if (i, j) == (1, 0):
        if np.any(np.asarray(gamma1) <= 0):
            raise ValueError("lambda_10 requires gamma1 > 0 (relaxation must "
                             "be possible)")
        # gamma1 (e^{2i nu t} - e^{-(gamma1 + 2i nu) t}) over
        # (gamma1 + 4i nu)(1 - e^{-gamma1 t}), with each difference taken
        # by expm1 so that it does not cancel when gamma1 t is small.
        num = -gamma1 * np.exp(2j * nu * t) * np.expm1(
            -(gamma1 + 4j * nu) * t)
        den = -(gamma1 + 4j * nu) * np.expm1(-gamma1 * t)
        return num / den
    raise ForbiddenTransitionError(
        "spectator transition 0 -> 1 is forbidden at zero temperature")


def transition_probability(i: int, j: int, gamma1, t: float):
    """N_ij: probability of the spectator transition over a window t, of the
    shape of `gamma1`."""
    survive = np.exp(-gamma1 * t)
    return {(0, 0): np.ones_like(survive), (0, 1): np.zeros_like(survive),
            (1, 1): survive, (1, 0): 1.0 - survive}[(i, j)]


def rb_decay_constant(chan: ConditionalChannel) -> float:
    """p = (Tr[superop] - 1) / 3 for a trace-preserving single-qubit channel."""
    return float((np.trace(chan.superop).real - 1.0) / 3.0)


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


@lru_cache(maxsize=1)
def clifford_group() -> CliffordGroup:
    """Generate the group from {H, S} by closure; order 24.

    U and V are one Clifford when |tr(U^dagger V)| = 2, and two distinct
    Cliffords have |tr(U^dagger V)| <= sqrt(2), so an element is matched by
    its overlap.
    """
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    elements: list[np.ndarray] = [np.eye(2, dtype=complex)]
    frontier = [elements[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for g in (h, s):
                v = _canonical_phase(g @ u)
                if all(abs((w.conj() * v).sum()) < 1.5 for w in elements):
                    elements.append(v)
                    nxt.append(v)
        frontier = nxt
    if len(elements) != 24:
        raise RuntimeError(f"Clifford closure produced {len(elements)} elements")
    stack = np.array(elements)

    def index(w):
        """Index of the element equal, up to a phase, to each matrix of `w`."""
        overlaps = np.einsum("kij,...ij->...k", stack.conj(), w)
        return np.argmax(np.abs(overlaps), axis=-1)

    # One row at a time keeps the overlaps 24 x 24.
    return CliffordGroup(unitaries=tuple(elements),
                         compose=np.array([index(u @ stack) for u in stack]),
                         inverse=index(stack.conj().transpose(0, 2, 1)))


@dataclass
class RBCurve:
    """Sequence lengths and averaged survival probabilities.

    `stderr` is None for the exact average, which samples no sequences.
    """

    lengths: np.ndarray
    survival: np.ndarray
    stderr: np.ndarray | None


# Gate frames: 'experimental' divides out the ground-state ZZ phase per gate.
FRAMES = ("bare", "experimental")


def branch_weights(init: str, n_spec: int) -> tuple[np.ndarray, np.ndarray]:
    """Weighted Z-bit branches of a preparation: 'zero'/'0', 'one'/'1',
    'plus'/'+' or n_spec 0/1 bits; anything else raises ValueError.
    Returns a (branches, n_spec) bool array of excited bits and the weights.
    """
    if init in ("0", "zero"):
        return np.zeros((1, n_spec), dtype=bool), np.ones(1)
    if init in ("1", "one"):
        return np.ones((1, n_spec), dtype=bool), np.ones(1)
    if len(init) == n_spec and set(init) <= {"0", "1"}:
        return np.array([[c == "1" for c in init]], dtype=bool), np.ones(1)
    if init in ("+", "plus"):
        # |+> preparations enter as an equal classical mixture of Z branches;
        # inter-branch coherences do not survive the twirl for this observable.
        # Branch b is b in binary, the first spectator its leading bit.
        bits = np.array(list(product((False, True), repeat=n_spec)),
                        dtype=bool).reshape(2 ** n_spec, n_spec)
        return bits, np.full(len(bits), 0.5 ** n_spec)
    raise ValueError(f"unknown spectator preparation {init!r}")


def _rb_lengths(lengths) -> np.ndarray:
    lengths = np.asarray(lengths, dtype=int)
    if np.any(lengths < 1):
        raise ValueError("RB sequence lengths must be >= 1")
    return lengths


def _gate_table(device: DeviceModel, t_gate: float, frame: str) -> np.ndarray:
    """Gate eigenvalue of each spectator (column) by its history code (row):
    lambda_00, lambda_11 and lambda_10, a (3, N) array.

    The 'experimental' frame divides out the ground-state ZZ phase of each
    gate.  A spectator with gamma = 0 never decays; its lambda_10 repeats
    lambda_11 so that the table stays finite.
    """
    if frame not in FRAMES:
        raise ValueError(f"unknown frame {frame!r}")
    nus, gammas = device.nus, device.spectator_gammas
    table = np.array([lambda_analytic(i, j, nus, gammas, t_gate)
                      for i, j in ((0, 0), (1, 1), (1, 1))])
    decays = gammas > 0
    table[2, decays] = lambda_analytic(1, 0, nus[decays], gammas[decays],
                                       t_gate)
    if frame == "experimental":
        table *= np.exp(-2j * nus * t_gate)
    return table


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
    lam = _gate_table(device, t_gate, frame)
    lengths = _rb_lengths(lengths)
    n_spec = device.n_spectators
    prob = np.array([transition_probability(i, j, device.spectator_gammas,
                                            t_gate)
                     for i, j in ((0, 0), (1, 1), (1, 0))])
    # Every configuration, in binary order: the branches of a |+> preparation.
    excited, _ = branch_weights("plus", n_spec)
    # step[c', c]: c is the configuration before a gate, c' the one after.
    # A spectator's forbidden 0 -> 1 gets code 0; `allowed` masks it out.
    to, frm = excited[:, None, :], excited[None, :, :]
    history = (to & frm) + 2 * (frm & ~to)
    spectators = np.arange(n_spec)
    allowed = ~(to & ~frm).any(axis=-1)
    step = (prob[history, spectators].prod(axis=-1) * allowed
            * (1.0 + 2.0 * lam[history, spectators].prod(axis=-1).real) / 3.0)

    bits, weights = branch_weights(init, n_spec)
    vec = np.zeros(len(excited))
    vec[bits @ (1 << spectators[::-1])] = weights
    survival = np.empty(lengths.size)
    done = 0
    for li in np.argsort(lengths, kind="stable"):
        vec = np.linalg.matrix_power(step, int(lengths[li]) - done) @ vec
        done = int(lengths[li])
        survival[li] = 0.5 + 0.5 * vec.sum()
    return RBCurve(lengths=lengths, survival=survival, stderr=None)


def simulate_rb(device: DeviceModel, init: str, lengths, n_seq: int,
                t_gate: float, frame: str = "experimental",
                seed: int = 0) -> RBCurve:
    """Clifford-level RB with per-gate conditional spectator-decay channels.

    Each spectator is tracked classically: it survives each gate window with
    probability e^{-gamma t_gate}; its history code is 1 before the decay
    gate, 2 during it and 0 afterwards, and picks its row of `_gate_table`.
    The error channel (including on the recovery gate) is the product of
    per-spectator diagonal channels.  `average_survival` is the exact mean of
    this process.

    Random numbers are drawn per sequence, in order: the m gate indices, then
    one decay time per excited (branch, spectator) pair.  All sequences of
    one length are then propagated together as a (sequence, branch) batch,
    one gate position at a time.
    """
    table = _gate_table(device, t_gate, frame)
    lengths = _rb_lengths(lengths)
    group = clifford_group()
    unitaries = np.stack(group.unitaries)
    rng = np.random.Generator(np.random.Philox(key=seed))

    gammas = device.spectator_gammas
    spectators = np.arange(device.n_spectators)
    excited, weights = branch_weights(init, device.n_spectators)
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
        # total_gates + 1 = no decay within the sequence.
        decay_gate = np.full((n_seq, *excited.shape), total_gates + 1)
        for sidx in range(n_seq):
            gates[sidx] = rng.integers(0, len(group), size=m)
            if scales.size:
                k = rng.exponential(scales) // t_gate + 1
                decay_gate[sidx, rows, cols] = np.minimum(k, total_gates + 1)
        net = np.zeros(n_seq, dtype=int)
        for g_pos in range(m):
            net = group.compose[gates[:, g_pos], net]
        all_gates = np.column_stack([gates, group.inverse[net]])

        rho = np.zeros((n_seq, len(weights), 2, 2), dtype=complex)
        rho[..., 0, 0] = 1.0
        for g_pos in range(total_gates):
            u = unitaries[all_gates[:, g_pos]]
            rho = np.einsum("sab,snbc,sdc->snad", u, rho, u.conj())
            gate_no = g_pos + 1
            history = excited * np.where(decay_gate == gate_no, 2,
                                         decay_gate > gate_no)
            # The error channel diag(1, lam, lam*, 1), in place.
            lam = table[history, spectators].prod(axis=-1)
            rho[..., 1, 0] *= lam
            rho[..., 0, 1] *= lam.conj()

        per_seq = np.einsum("n,snab,ba->s", weights, rho, ket0).real
        survival[li] = per_seq.mean()
        stderr[li] = per_seq.std(ddof=1) / np.sqrt(n_seq) if n_seq > 1 else 0.0
    return RBCurve(lengths=lengths, survival=survival, stderr=stderr)
