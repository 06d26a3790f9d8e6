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
toggling-frame mean: the lab-frame coherence that the Lindblad engine gives
when it applies each pulse to the state (`model.propagate(...,
pulse_times=...)`).  Magnitudes and standard errors are the same in both
frames.

Kernel design: one point builds the phase of all its shots in the imaginary
part of the complex shot buffer, one decaying spectator at a time, in
spectator order.  Each spectator's decay times are drawn from the point's
stream in blocks of `_BLOCK` shots, so the draw temporaries stay in cache and
no (spectators, shots) array is held; the blocks continue the Generator
exactly, so they are the numbers a single draw would give.  The pulse
segment of each decay time comes from a bucket table of at most
4 x (pulses + 1) uniform buckets, plus a fixed number of exact correction
steps, instead of a binary search; the result is the segment that
`np.searchsorted(edges, t, "right") - 1` gives, so the phases are the same
to the last bit.

`ensemble_trace` spreads its grid points over one worker thread per CPU the
process may use, the calling thread among them, each with its own
workspace; numpy releases the interpreter lock inside the kernel's array
operations.  A point reads only
its own counter-based stream and writes only its own result, so the output
does not depend on the number of workers or on their timing.  The pulse
sequences and streams are made in the calling thread before the workers
start, so the workers run only private code.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .analytic import CoherenceTrace
from .model import DeviceModel, SpectatorInit, parse_spectator_init

# Shots per phase block.  The block's float temporaries (256 kB each) stay in
# cache, and a block is long enough that the interpreter work per numpy call
# is small next to the call itself, which worker threads run without the
# interpreter lock.
_BLOCK = 32768


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
    out = np.full((n, device.n_spectators), np.inf)
    for j, scale in _decaying(device, s):
        out[:, j] = rng.standard_exponential(n) * scale
    return out


class _Workspace:
    """Buffers of one worker: n_traj complex shots, and scratch for blocks
    of up to `block` shots.  Reused for every point the worker computes."""

    def __init__(self, n_traj: int, block: int):
        self.shots = np.empty(n_traj, dtype=complex)
        self.block = block
        self.t, self.p, self.tmp = (np.empty(block) for _ in range(3))
        self.bucket = np.empty(block, dtype=np.intp)
        self.seg = np.empty(block, dtype=np.intp)
        self.step = np.empty(block, dtype=bool)


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


def _terms(device: DeviceModel, s: SpectatorInit, scales: dict) -> list:
    """(excited, 2 nu, scale) per spectator, in spectator order.

    `scales` maps each spectator that decays during the sequence to the
    factor that turns its drawn times into decay times; any other
    spectator has scale None and keeps its state.
    """
    return [(bit, 2.0 * nu, scales.get(j))
            for j, (bit, nu) in enumerate(zip(s, device.nus))]


def _phase(parity: _Parity, terms: list, draw, ws: _Workspace) -> np.ndarray:
    """Total control phase of every shot, built in ws.shots.imag (returned).

    Each spectator adds 2 nu (P(T) - 2 P(t_d)) with t_d = min(decay, T):
    its sign is -1 until the decay and +1 after.  A spectator in |0> adds
    2 nu P(T).  `draw(j, out)` fills `out` with spectator j's next unscaled
    times.  The terms are added in spectator order, each a block of shots
    at a time.
    """
    phi = ws.shots.imag
    phi.fill(0.0)
    T, p_total = parity.total_time, parity.total
    n, block = phi.size, ws.block
    for j, (excited, two_nu, scale) in enumerate(terms):
        if scale is None:
            phi += two_nu * (p_total - 2.0 * p_total if excited else p_total)
            continue
        for a in range(0, n, block):
            m = min(block, n - a)
            t = ws.t[:m]
            draw(j, t)
            t *= scale
            np.minimum(t, T, out=t)
            p = parity(t, ws, m)
            p *= 2.0
            np.subtract(p_total, p, out=p)
            p *= two_nu
            phi[a:a + m] += p
    return phi


def accumulated_phase(seq: PulseSequence, decays, device: DeviceModel,
                      s: SpectatorInit) -> float:
    """Total control phase for one shot, given the spectator decay times."""
    s = parse_spectator_init(s, device.n_spectators)
    decays = np.asarray(decays, dtype=float)
    terms = _terms(device, s, {j: 1.0 for j, bit in enumerate(s) if bit})
    phi = _phase(_Parity(seq), terms, lambda j, out: out.fill(decays[j]),
                 _Workspace(1, 1))
    return float(phi[0])


def _coherence(device: DeviceModel, seq: PulseSequence, terms: list,
               rng: np.random.Generator, ws: _Workspace,
               frame: str) -> tuple[complex, float]:
    """One point of `ensemble_coherence`, computed in the workspace."""
    parity = _Parity(seq)
    phi = _phase(parity, terms,
                 lambda j, out: rng.standard_exponential(out=out), ws)
    shots = ws.shots
    n = shots.size
    for a in range(0, n, ws.block):
        b = min(a + ws.block, n)
        tmp = ws.tmp[:b - a]
        np.copyto(tmp, phi[a:b])
        np.multiply(tmp, -1j, out=shots[a:b])
        np.exp(shots[a:b], out=shots[a:b])
    envelope = np.exp(-device.control.gamma_tilde * seq.total_time)
    mean = envelope * complex(shots.mean())
    odd = len(seq.pulse_times) % 2
    if odd:
        mean = mean.conjugate()
    if n > 1:
        var = (shots.real.var(ddof=1) + shots.imag.var(ddof=1)) / n
    else:
        var = 0.0
    stderr = envelope * float(np.sqrt(var))
    if frame == "experimental":
        # Divide out the all-ground phase e^{-2i sum(nu) P(T)} of the same
        # train, conjugated like the mean after an odd number of pulses.
        static = np.exp(2j * device.nus.sum() * parity.total)
        mean *= static.conjugate() if odd else static
    elif frame != "bare":
        raise ValueError(f"unknown frame {frame!r}")
    return mean, stderr


def _ensemble_terms(device: DeviceModel, s: SpectatorInit,
                    n_traj: int) -> list:
    """Spectator terms of ensembles of n_traj shots drawn from a stream."""
    if n_traj <= 0:
        raise ValueError("n_traj must be positive")
    return _terms(device, s, dict(_decaying(device, s)))


def _workspace(n_traj: int) -> _Workspace:
    return _Workspace(n_traj, min(n_traj, _BLOCK))


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # not available on every platform
        return os.cpu_count() or 1


def _compute_points(device: DeviceModel, terms: list, points: list,
                    n_traj: int, frame: str, values: np.ndarray,
                    errs: np.ndarray) -> None:
    """values[k], errs[k] of each point (k, seq, rng), on W threads.

    W = min(CPUs, points); worker w computes points w, w + W, ... in its own
    workspace, and the calling thread is worker 0.  The first exception a
    worker raises is raised here once every worker has stopped.
    """
    if not points:
        return
    n_workers = min(_cpus(), len(points))
    spaces = [_workspace(n_traj) for _ in range(n_workers)]
    failures = []

    def work(w):
        try:
            for k, seq, rng in points[w::n_workers]:
                values[k], errs[k] = _coherence(device, seq, terms, rng,
                                                spaces[w], frame)
        except Exception as exc:
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(w,))
               for w in range(1, n_workers)]
    for thread in threads:
        thread.start()
    try:
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]


def ensemble_coherence(device: DeviceModel, s: SpectatorInit,
                       seq: PulseSequence, ens: EnsembleSpec,
                       frame: str = "bare",
                       stream: int = 0) -> tuple[complex, float]:
    """Ensemble-averaged coherence at t = seq.total_time, with standard error.

    Returns e^{-gamma_tilde T} <e^{-i phi}> and the standard error of the
    complex mean (sqrt of summed quadrature variances over n_traj).  After
    an odd number of pulses the mean is conjugated into the lab frame (see
    the module docstring).  The 'experimental' frame divides out the static
    phase that all-ground spectators give under the same pulse train,
    e^{-2i sum(nu) P(T)} (conjugated after an odd number of pulses), where
    P(T) is the toggling-frame time: T for Ramsey, 0 for CPMG.
    """
    s = parse_spectator_init(s, device.n_spectators)
    terms = _ensemble_terms(device, s, ens.n_traj)
    return _coherence(device, seq, terms, ens.rng(stream),
                      _workspace(ens.n_traj), frame)


def ensemble_trace(device: DeviceModel, s: SpectatorInit, times,
                   ens: EnsembleSpec, cpmg_order: int | None = None,
                   normalized: bool = True, frame: str = "bare",
                   spam_scale: complex = 1.0) -> CoherenceTrace:
    """Trajectory-engine trace over a grid of total times.

    Each grid point is an independent experiment of ens.n_traj shots with its
    own counter-based stream, so the whole trace is reproducible per seed.
    With `cpmg_order` set, every point uses an explicit CPMG_n pulse train.
    The points run on one worker thread per CPU the process may use; the
    output is the same for any number of workers.
    """
    s = parse_spectator_init(s, device.n_spectators)
    terms = _ensemble_terms(device, s, ens.n_traj)
    times = np.asarray(times, dtype=float)
    values = np.ones(times.size, dtype=complex)
    errs = np.zeros(times.size)
    # Sequences and streams are made here, in the calling thread, so that
    # the workers call no public function.
    points = [(k, PulseSequence.ramsey(T) if cpmg_order is None
               else build_cpmg(T, cpmg_order), ens.rng(k))
              for k, T in enumerate(times) if T > 0]
    _compute_points(device, terms, points, ens.n_traj, frame, values, errs)
    scale = spam_scale * (1.0 if normalized else 0.5)
    return CoherenceTrace(times=times, values=scale * values,
                          normalization=scale, stderr=abs(scale) * errs)
