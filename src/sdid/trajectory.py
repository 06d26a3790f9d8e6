"""Monte-Carlo phase-kick engine.

Each shot draws a relaxation time for every initially excited spectator,
integrates the piecewise-constant Z-phase on the control (with sign flips at
echo pulses), and contributes e^{-i phi}.  The ensemble average times the
deterministic intrinsic envelope e^{-gamma_tilde T} reproduces the analytic
coherence; with explicit CPMG pulse trains it serves as the independent
cross-check for the effective-coupling model.

Sign convention: a spectator frozen in |0> yields the coherence factor
e^{-2 i nu T}, matching the closed-form engine.  The Z-frequency seen by the
control is +2 nu while the spectator is in |0> and -2 nu in |1>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import CoherenceTrace
from .model import DeviceModel, SpectatorInit, parse_spectator_init


@dataclass(frozen=True)
class PulseSequence:
    """Instantaneous pi-pulse times inside a Ramsey window of length total_time."""

    total_time: float
    pulse_times: tuple[float, ...] = ()
    kind: str = "ramsey"

    def __post_init__(self):
        if self.total_time <= 0:
            raise ValueError("total_time must be positive")
        pt = tuple(float(t) for t in self.pulse_times)
        if any(b <= a for a, b in zip(pt, pt[1:])):
            raise ValueError("pulse times must be strictly increasing")
        if pt and (pt[0] <= 0 or pt[-1] >= self.total_time):
            raise ValueError("pulse times must lie strictly inside (0, T)")
        object.__setattr__(self, "pulse_times", pt)

    @classmethod
    def ramsey(cls, total_time: float) -> "PulseSequence":
        return cls(total_time=total_time, kind="ramsey")

    @classmethod
    def hahn(cls, total_time: float) -> "PulseSequence":
        return cls(total_time=total_time, pulse_times=(total_time / 2,),
                   kind="hahn")

    @classmethod
    def cpmg(cls, total_time: float, n: int) -> "PulseSequence":
        return build_cpmg(total_time, n)


def build_cpmg(total_time: float, n: int) -> PulseSequence:
    """CPMG_n: n+1 equidistant pulses at (k + 1/2) T / (n+1)."""
    if n < 0:
        raise ValueError("CPMG order must be >= 0")
    tau = total_time / (n + 1)
    pulses = tuple((k + 0.5) * tau for k in range(n + 1))
    return PulseSequence(total_time=total_time, pulse_times=pulses,
                         kind=f"cpmg({n})")


@dataclass(frozen=True)
class EnsembleSpec:
    """Trajectory count and RNG seed; same seed gives bit-identical output.

    Streams are counter-based (Philox), so the ensemble average is independent
    of any execution-order concerns.
    """

    n_traj: int
    seed: int = 0

    def rng(self, stream: int = 0) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=self.seed, counter=[0, 0, 0, stream]))


def sample_decays(device: DeviceModel, s: SpectatorInit,
                  rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, N) decay times: Exp(gamma_j) if spectator j is excited, else inf.

    Column order matches the spectator list.
    """
    s = parse_spectator_init(s, device.n_spectators)
    cols = []
    for bit, (q, _) in zip(s, device.spectators):
        if bit and q.gamma > 0:
            cols.append(rng.exponential(1.0 / q.gamma, size=n))
        else:
            cols.append(np.full(n, np.inf))
    if not cols:
        return np.empty((n, 0))
    return np.stack(cols, axis=1)


def _parity_integral(seq: PulseSequence, t) -> np.ndarray:
    """P(t) = integral from 0 to t of (-1)^(#pulses before t'), vectorized."""
    t = np.asarray(t, dtype=float)
    edges = np.array((0.0,) + seq.pulse_times)
    # P at each segment edge, then linear within the segment with slope +-1.
    seg_lengths = np.diff(np.append(edges, np.inf))[:-1]
    signs = (-1.0) ** np.arange(edges.size)
    p_at_edges = np.concatenate(([0.0], np.cumsum(signs[:-1] * seg_lengths)))
    idx = np.searchsorted(edges, t, side="right") - 1
    return p_at_edges[idx] + signs[idx] * (t - edges[idx])


def accumulated_phase(seq: PulseSequence, decays, device: DeviceModel,
                      s: SpectatorInit) -> float:
    """Total control phase for one shot, given the spectator decay times."""
    s = parse_spectator_init(s, device.n_spectators)
    decays = np.asarray(decays, dtype=float)
    return float(_phases_from_decays(seq, decays[None, :], device, s)[0])


def _phases_from_decays(seq: PulseSequence, decays: np.ndarray,
                        device: DeviceModel, s: SpectatorInit) -> np.ndarray:
    """Vectorized phase over a (n, N) batch of decay times."""
    T = seq.total_time
    p_total = float(_parity_integral(seq, T))
    phi = np.zeros(decays.shape[0])
    for j, (bit, nu) in enumerate(zip(s, device.nus)):
        if bit:
            t_d = np.minimum(decays[:, j], T)
            # z = -1 until the decay, +1 after.
            phi += 2.0 * nu * (p_total - 2.0 * _parity_integral(seq, t_d))
        else:
            phi += 2.0 * nu * p_total
    return phi


def ensemble_coherence(device: DeviceModel, s: SpectatorInit,
                       seq: PulseSequence, ens: EnsembleSpec,
                       frame: str = "bare",
                       stream: int = 0) -> tuple[complex, float]:
    """Ensemble-averaged coherence at t = seq.total_time, with standard error.

    Returns e^{-gamma_tilde T} <e^{-i phi}> and the standard error of the
    complex mean (sqrt of summed quadrature variances over n_traj).  In the
    'experimental' frame the static ground-state ZZ phase e^{-2i sum(nu) T}
    is divided out.
    """
    if ens.n_traj <= 0:
        raise ValueError("n_traj must be positive")
    s = parse_spectator_init(s, device.n_spectators)
    rng = ens.rng(stream)
    decays = sample_decays(device, s, rng, ens.n_traj)
    phi = _phases_from_decays(seq, decays, device, s)
    shots = np.exp(-1j * phi)
    envelope = np.exp(-device.control.gamma_tilde * seq.total_time)
    mean = envelope * complex(shots.mean())
    if ens.n_traj > 1:
        var = (shots.real.var(ddof=1) + shots.imag.var(ddof=1)) / ens.n_traj
    else:
        var = 0.0
    stderr = envelope * float(np.sqrt(var))
    if frame == "experimental":
        mean *= np.exp(2j * device.nus.sum() * seq.total_time)
    elif frame != "bare":
        raise ValueError(f"unknown frame {frame!r}")
    return mean, stderr


def ensemble_trace(device: DeviceModel, s: SpectatorInit, times,
                   ens: EnsembleSpec, cpmg_order: int | None = None,
                   normalized: bool = True, frame: str = "bare",
                   spam_scale: complex = 1.0) -> CoherenceTrace:
    """Trajectory-engine trace over a grid of total times.

    Each grid point is an independent experiment of ens.n_traj shots with its
    own counter-based stream, so the whole trace is reproducible per seed.
    With `cpmg_order` set, every point uses an explicit CPMG_n pulse train.
    """
    times = np.asarray(times, dtype=float)
    values = np.empty(times.size, dtype=complex)
    errs = np.empty(times.size)
    for k, T in enumerate(times):
        if T <= 0:
            values[k], errs[k] = 1.0, 0.0
            continue
        if cpmg_order is None:
            seq = PulseSequence.ramsey(T)
        else:
            seq = build_cpmg(T, cpmg_order)
        values[k], errs[k] = ensemble_coherence(device, s, seq, ens,
                                                frame=frame, stream=k)
    scale = spam_scale * (1.0 if normalized else 0.5)
    return CoherenceTrace(times=times, values=scale * values,
                          normalization=scale, stderr=abs(scale) * errs)
