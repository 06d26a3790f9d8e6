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

Phase convention with pulses: the phase is integrated in the toggling frame,
where a pi pulse flips the sign of the coupling instead of the control.
After an odd number of pulses the control's |0> and |1> are swapped with
respect to that frame, so the engine reports the complex conjugate of the
toggling-frame mean: the lab-frame coherence that the dense engine gives
when it applies each pulse to the state (`model.propagate(...,
pulse_times=...)`).  Magnitudes and standard errors are the same in both
frames.

Kernel design: one point draws all its decay times with a single
`standard_exponential` call into a buffer that the whole trace reuses, and
builds the phase in blocks of `_BLOCK` shots so that the temporaries stay in
cache.  The pulse segment of each decay time comes from a bucket table of at
most 4 x (pulses + 1) uniform buckets, plus a fixed number of exact
correction steps, instead of a binary search; the result is the segment that
`np.searchsorted(edges, t, "right") - 1` gives, so the phases are the same
to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import CoherenceTrace
from .model import DeviceModel, SpectatorInit, parse_spectator_init

# Shots per phase block; the block's float temporaries (64 kB each) stay in
# cache.
_BLOCK = 8192


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


def _decaying(device: DeviceModel, s: SpectatorInit) -> list[tuple[int, float]]:
    """(spectator index, mean decay time 1/gamma) of each spectator that can
    decay: excited, with gamma > 0.  In spectator order, which is the order
    of the draws."""
    return [(j, 1.0 / q.gamma)
            for j, (bit, (q, _)) in enumerate(zip(s, device.spectators))
            if bit and q.gamma > 0]


def sample_decays(device: DeviceModel, s: SpectatorInit,
                  rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, N) decay times: Exp(gamma_j) if spectator j is excited, else inf.

    Column order matches the spectator list.  The numbers are the ones the
    ensemble engine draws for a point from the same stream.
    """
    s = parse_spectator_init(s, device.n_spectators)
    decaying = _decaying(device, s)
    draws = np.empty((len(decaying), n))
    rng.standard_exponential(out=draws)
    out = np.full((n, device.n_spectators), np.inf)
    for row, (j, scale) in enumerate(decaying):
        out[:, j] = draws[row] * scale
    return out


class _Workspace:
    """Buffers for one ensemble size, reused for every point of a trace."""

    def __init__(self, n_rows: int, n_traj: int):
        self.draws = np.empty((n_rows, n_traj))
        self.shots = np.empty(n_traj, dtype=complex)
        m = min(n_traj, _BLOCK)
        self.phi, self.t, self.p, self.tmp = (np.empty(m) for _ in range(4))
        self.bucket = np.empty(m, dtype=np.intp)
        self.seg = np.empty(m, dtype=np.intp)
        self.step = np.empty(m, dtype=bool)


class _Parity:
    """P(t) = integral from 0 to t of (-1)^(#pulses before t'), 0 <= t <= T.

    Segment k starts at edges[k] (0, then the pulses), and P is linear with
    slope signs[k] inside it.  The segment of t is looked up in O(1): [0, T]
    is cut into uniform buckets about as wide as the shortest segment (at
    most 4 per edge), `first[b]` is the last edge that falls in a bucket
    before b, and `steps` moves forward over the edges that share t's
    bucket.  An edge and a time go through the same float arithmetic to
    find their bucket, and that map is monotone, so the edges below t's
    bucket are exactly those below t, whatever the rounding: after `steps`
    corrections the segment is `searchsorted(edges, t, "right") - 1`.
    """

    def __init__(self, seq: PulseSequence):
        self.total_time = T = seq.total_time
        edges = np.array((0.0,) + seq.pulse_times)
        seg_lengths = np.diff(np.append(edges, np.inf))[:-1]
        self.edges = edges
        self.signs = (-1.0) ** np.arange(edges.size)
        self.p_at_edges = np.concatenate(
            ([0.0], np.cumsum(self.signs[:-1] * seg_lengths)))
        self.next_edges = np.append(edges[1:], np.inf)
        last = edges.size - 1
        self.total = (self.p_at_edges[last]
                      + self.signs[last] * (T - edges[last]))

        shortest = np.diff(np.append(edges, T)).min()
        cap = 4 * edges.size
        n_buckets = min(int(np.ceil(T / max(shortest, T / cap))), cap)
        self.scale = n_buckets / T
        self.last_bucket = n_buckets - 1
        home = np.empty(edges.size, dtype=np.intp)
        self._bucket(edges, np.empty(edges.size), home)
        self.first = np.maximum(np.searchsorted(home, np.arange(n_buckets))
                                - 1, 0)
        shared = np.bincount(home, minlength=n_buckets)
        shared[0] -= 1      # edge 0 is already bucket 0's first segment
        self.steps = int(shared.max())

    def _bucket(self, t, tmp, out):
        np.multiply(t, self.scale, out=tmp)
        np.copyto(out, tmp, casting="unsafe")
        np.minimum(out, self.last_bucket, out=out)

    def segments(self, t, ws: _Workspace, m: int) -> np.ndarray:
        """Segment index of each of the m times t (a view into ws)."""
        tmp, bucket, seg = ws.tmp[:m], ws.bucket[:m], ws.seg[:m]
        self._bucket(t, tmp, bucket)
        np.take(self.first, bucket, out=seg, mode="clip")
        step = ws.step[:m]
        for _ in range(self.steps):
            np.take(self.next_edges, seg, out=tmp, mode="clip")
            np.less_equal(tmp, t, out=step)
            seg += step
        return seg

    def __call__(self, t, ws: _Workspace, m: int) -> np.ndarray:
        """P at each of the m times t, into ws.p."""
        idx = self.segments(t, ws, m)
        p, tmp = ws.p[:m], ws.tmp[:m]
        # p_at_edges[idx] + signs[idx] * (t - edges[idx])
        np.take(self.edges, idx, out=tmp, mode="clip")
        np.subtract(t, tmp, out=tmp)
        np.take(self.signs, idx, out=p, mode="clip")
        tmp *= p
        np.take(self.p_at_edges, idx, out=p, mode="clip")
        p += tmp
        return p


def _terms(device: DeviceModel, s: SpectatorInit, rows: dict) -> list:
    """(excited, 2 nu, row, scale) per spectator, in spectator order.

    `rows` maps a spectator index to (row of its decay times, scale of that
    row); a spectator without a row never decays during the sequence.
    """
    return [(bit, 2.0 * nu) + rows.get(j, (None, 1.0))
            for j, (bit, nu) in enumerate(zip(s, device.nus))]


def _phase_block(parity: _Parity, terms: list, rows: np.ndarray, a: int,
                 b: int, ws: _Workspace) -> np.ndarray:
    """Total control phase of shots a..b-1 (a view into ws).

    Each spectator adds 2 nu (P(T) - 2 P(t_d)) with t_d = min(decay, T):
    its sign is -1 until the decay and +1 after.  A spectator in |0> adds
    2 nu P(T).
    """
    m = b - a
    phi, t = ws.phi[:m], ws.t[:m]
    T, p_total = parity.total_time, parity.total
    phi.fill(0.0)
    for excited, two_nu, row, scale in terms:
        if row is None:
            phi += two_nu * (p_total - 2.0 * p_total if excited else p_total)
            continue
        np.multiply(rows[row, a:b], scale, out=t)
        np.minimum(t, T, out=t)
        p = parity(t, ws, m)
        p *= 2.0
        np.subtract(p_total, p, out=p)
        p *= two_nu
        phi += p
    return phi


def accumulated_phase(seq: PulseSequence, decays, device: DeviceModel,
                      s: SpectatorInit) -> float:
    """Total control phase for one shot, given the spectator decay times."""
    s = parse_spectator_init(s, device.n_spectators)
    decays = np.asarray(decays, dtype=float)
    terms = _terms(device, s, {j: (j, 1.0) for j, bit in enumerate(s)
                               if bit})
    phi = _phase_block(_Parity(seq), terms, decays[:, None], 0, 1,
                       _Workspace(0, 1))
    return float(phi[0])


def _coherence(device: DeviceModel, seq: PulseSequence, terms: list,
               rng: np.random.Generator, ws: _Workspace,
               frame: str) -> tuple[complex, float]:
    """One point of `ensemble_coherence`, computed in the workspace."""
    T = seq.total_time
    parity = _Parity(seq)
    rng.standard_exponential(out=ws.draws)
    shots = ws.shots
    n = shots.size
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        phi = _phase_block(parity, terms, ws.draws, a, b, ws)
        np.multiply(phi, -1j, out=shots[a:b])
        np.exp(shots[a:b], out=shots[a:b])
    envelope = np.exp(-device.control.gamma_tilde * T)
    mean = envelope * complex(shots.mean())
    if len(seq.pulse_times) % 2:
        mean = mean.conjugate()
    if n > 1:
        var = (shots.real.var(ddof=1) + shots.imag.var(ddof=1)) / n
    else:
        var = 0.0
    stderr = envelope * float(np.sqrt(var))
    if frame == "experimental":
        mean *= np.exp(2j * device.nus.sum() * T)
    elif frame != "bare":
        raise ValueError(f"unknown frame {frame!r}")
    return mean, stderr


def _ensemble(device: DeviceModel, s: SpectatorInit,
              n_traj: int) -> tuple[list, _Workspace]:
    """Spectator terms and a fresh workspace for ensembles of n_traj shots."""
    if n_traj <= 0:
        raise ValueError("n_traj must be positive")
    decaying = _decaying(device, s)
    rows = {j: (row, scale) for row, (j, scale) in enumerate(decaying)}
    return _terms(device, s, rows), _Workspace(len(decaying), n_traj)


def ensemble_coherence(device: DeviceModel, s: SpectatorInit,
                       seq: PulseSequence, ens: EnsembleSpec,
                       frame: str = "bare",
                       stream: int = 0) -> tuple[complex, float]:
    """Ensemble-averaged coherence at t = seq.total_time, with standard error.

    Returns e^{-gamma_tilde T} <e^{-i phi}> and the standard error of the
    complex mean (sqrt of summed quadrature variances over n_traj).  After
    an odd number of pulses the mean is conjugated into the lab frame (see
    the module docstring).  In the 'experimental' frame the static
    ground-state ZZ phase e^{-2i sum(nu) T} is divided out.
    """
    s = parse_spectator_init(s, device.n_spectators)
    terms, ws = _ensemble(device, s, ens.n_traj)
    return _coherence(device, seq, terms, ens.rng(stream), ws, frame)


def ensemble_trace(device: DeviceModel, s: SpectatorInit, times,
                   ens: EnsembleSpec, cpmg_order: int | None = None,
                   normalized: bool = True, frame: str = "bare",
                   spam_scale: complex = 1.0) -> CoherenceTrace:
    """Trajectory-engine trace over a grid of total times.

    Each grid point is an independent experiment of ens.n_traj shots with its
    own counter-based stream, so the whole trace is reproducible per seed.
    With `cpmg_order` set, every point uses an explicit CPMG_n pulse train.
    All points share one workspace.
    """
    s = parse_spectator_init(s, device.n_spectators)
    terms, ws = _ensemble(device, s, ens.n_traj)
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
        values[k], errs[k] = _coherence(device, seq, terms, ens.rng(k), ws,
                                        frame)
    scale = spam_scale * (1.0 if normalized else 0.5)
    return CoherenceTrace(times=times, values=scale * values,
                          normalization=scale, stderr=abs(scale) * errs)
