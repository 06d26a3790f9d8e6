"""Monte-Carlo phase-kick engine.

Each shot draws a relaxation time for every initially excited spectator,
integrates the piecewise-constant Z-phase on the control (with sign flips at
echo pulses), and contributes e^{-i phi}.  The ensemble average times the
deterministic intrinsic envelope e^{-gamma_tilde T} reproduces the analytic
coherence; with explicit pulse trains (`model.PulseSequence`) it is the
independent cross-check of the closed-form pulse-train coherence.

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
frames.  That lab-frame value, static phases included, is the only one the
engine reports, as the analytic and Lindblad engines do; the experimental
(all-ground) calibration frame is defined once, in `rb.simulate_rb`.

Kernel design: one point builds the phase of all its shots in the imaginary
part of the complex shot buffer, one decaying spectator at a time, in
spectator order.  Each spectator's decay times are drawn from the point's
stream in ceil(n_traj / `_BLOCK`) equal blocks, so the draw temporaries
stay small and no (spectators, shots) array is held; the blocks continue
the Generator exactly, so they are the numbers a single draw would give.
With pulses, the segment of each decay time comes from a bucket table of
at most 4 x (pulses + 1) uniform buckets, plus a fixed number of exact
correction steps, instead of a binary search; the result is the segment that
`np.searchsorted(seq.starts, t, "right") - 1` gives, so the phases are the
same to the last bit.  Without pulses there is one segment and P(t) = t
exactly, so a Ramsey point does no lookup: each block goes from the
clamped draw t straight to P(T) - 2t.

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

from .model import (CoherenceTrace, DeviceModel, PulseSequence, SpectatorInit,
                    build_cpmg, parse_spectator_init, time_grid)

# Most shots per phase block; the shots are split into equal blocks of at
# most this many (25,000 at 1e5 shots).  A block is long enough that the
# interpreter work per numpy call is small next to the call itself, which
# worker threads run without the interpreter lock.  A worker's block scratch
# is 33 bytes per shot of one block, next to 16 bytes per shot of its n_traj
# shots.
_BLOCK = 32768


@dataclass(frozen=True)
class EnsembleSpec:
    """Trajectory count and RNG seed; same seed gives bit-identical output.

    Streams are counter-based (Philox), so the ensemble average is independent
    of any execution-order concerns.
    """

    n_traj: int
    seed: int = 0

    def __post_init__(self):
        if self.n_traj <= 0:
            raise ValueError("n_traj must be positive")

    def rng(self, stream: int = 0) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=self.seed, counter=[0, 0, 0, stream]))


class _Workspace:
    """Buffers of one worker: n_traj complex shots, and scratch for one of
    the ceil(n_traj / `_BLOCK`) equal blocks they are split into.  A
    segment lookup keeps its bucket indices in `p`, as intp, until it fills
    `p` with P.  Reused for every point the worker computes."""

    def __init__(self, n_traj: int):
        self.shots = np.empty(n_traj, dtype=complex)
        n_blocks = -(-n_traj // _BLOCK)
        self.block = block = -(-n_traj // n_blocks)
        self.t, self.p, self.tmp = (np.empty(block) for _ in range(3))
        self.seg = np.empty(block, dtype=np.intp)
        self.step = np.empty(block, dtype=bool)


class _Parity:
    """O(1) lookup of the segment of a time in a train, and P there.

    The geometry (segment starts, slopes, P at the starts) is the
    sequence's own.  [0, T] is cut into uniform buckets about as wide as
    the shortest segment (at most 4 per segment), `first[b]` is the last
    segment start that falls in a bucket before b, and `steps` moves
    forward over the starts that share t's bucket.  A start and a time go
    through the same float arithmetic to find their bucket, and that map
    is monotone, so the starts below t's bucket are exactly those below t,
    whatever the rounding: after `steps` corrections the segment is
    `searchsorted(seq.starts, t, "right") - 1`.
    """

    def __init__(self, seq: PulseSequence):
        self.seq = seq
        T, edges = seq.total_time, seq.starts
        self.next_edges = np.append(edges[1:], np.inf)
        shortest = np.diff(np.append(edges, T)).min()
        cap = 4 * edges.size
        n_buckets = min(int(np.ceil(T / max(shortest, T / cap))), cap)
        self.scale = n_buckets / T
        self.last_bucket = n_buckets - 1
        home = np.empty(edges.size, dtype=np.intp)
        self._bucket(edges, home)
        np.minimum(home, self.last_bucket, out=home)
        self.first = np.maximum(np.searchsorted(home, np.arange(n_buckets))
                                - 1, 0)
        shared = np.bincount(home, minlength=n_buckets)
        shared[0] -= 1      # edge 0 is already bucket 0's first segment
        self.steps = int(shared.max())

    def _bucket(self, t, out):
        """floor(t * scale) into the intp array out, unclamped: at t = T it
        may be one past the last bucket."""
        np.multiply(t, self.scale, out=out, casting="unsafe")

    def segments(self, t, ws: _Workspace, m: int) -> np.ndarray:
        """Segment index of each of the m times t (a view into ws).  The
        buckets go in ws.p, which `__call__` fills only after this."""
        tmp, bucket, seg = ws.tmp[:m], ws.p.view(np.intp)[:m], ws.seg[:m]
        self._bucket(t, bucket)
        # mode="clip" clamps the buckets to the last one, as in __init__.
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
        seq, p, tmp = self.seq, ws.p[:m], ws.tmp[:m]
        # p_starts[idx] + signs[idx] * (t - starts[idx])
        np.take(seq.starts, idx, out=tmp, mode="clip")
        np.subtract(t, tmp, out=tmp)
        np.take(seq.signs, idx, out=p, mode="clip")
        tmp *= p
        np.take(seq.p_starts, idx, out=p, mode="clip")
        p += tmp
        return p


def _terms(device: DeviceModel, s: SpectatorInit) -> list:
    """(excited, 2 nu, mean decay time 1/gamma) per spectator, in spectator
    order.

    The mean decay time is None for a spectator that keeps its state during
    the sequence: one in |0>, or an excited one with gamma = 0.
    """
    return [(bit, 2.0 * nu, 1.0 / q.gamma if bit and q.gamma > 0 else None)
            for bit, (q, _), nu in zip(s, device.spectators, device.nus)]


def _phase(seq: PulseSequence, terms: list, rng: np.random.Generator,
           ws: _Workspace) -> np.ndarray:
    """Total control phase of every shot, built in ws.shots.imag (returned).

    Each spectator adds 2 nu (P(T) - 2 P(t_d)) with t_d = min(decay, T):
    its sign is -1 until the decay and +1 after.  A spectator in |0> adds
    2 nu P(T).  The terms are added in spectator order, each a block of
    shots at a time, and each decaying spectator's times are drawn from
    `rng` block by block.  A train without pulses is one segment of slope 1
    from 0, where P(t) = 0 + 1 * (t - 0) is t to the last bit, so it builds
    no `_Parity` and takes P(t_d) = t_d.
    """
    phi = ws.shots.imag
    phi.fill(0.0)
    T, p_total = seq.total_time, seq.p_total
    parity = _Parity(seq) if seq.pulse_times else None
    n, block = phi.size, ws.block
    for excited, two_nu, scale in terms:
        if scale is None:
            phi += two_nu * (p_total - 2.0 * p_total if excited else p_total)
            continue
        for a in range(0, n, block):
            m = min(block, n - a)
            t = ws.t[:m]
            rng.standard_exponential(out=t)
            t *= scale
            np.minimum(t, T, out=t)
            p = t if parity is None else parity(t, ws, m)
            p *= 2.0
            np.subtract(p_total, p, out=p)
            p *= two_nu
            phi[a:a + m] += p
    return phi


def _coherence(device: DeviceModel, seq: PulseSequence, terms: list,
               rng: np.random.Generator,
               ws: _Workspace) -> tuple[complex, float]:
    """One point of `ensemble_coherence`, computed in the workspace."""
    phi = _phase(seq, terms, rng, ws)
    shots = ws.shots
    n = shots.size
    # e^{-i phi} in place.  Since -1j is (-0.0, -1.0), phi * -1j is
    # (+0.0, -phi) with the sign of a zero phi flipped too, so these shots
    # are bitwise those of np.exp(phi * -1j).
    shots.real = 0.0
    np.negative(phi, out=phi)
    np.exp(shots, out=shots)
    envelope = np.exp(-device.control.gamma_tilde * seq.total_time)
    mean = envelope * complex(shots.mean())
    if len(seq.pulse_times) % 2:
        mean = mean.conjugate()
    if n > 1:
        # var(ddof=1) of each part, in place by numpy's own steps: bitwise
        # that of `.var(ddof=1)`, without its n-float temporary.
        var = 0.0
        for x in (shots.real, shots.imag):
            x -= x.sum() / n
            np.square(x, out=x)
            var += x.sum() / (n - 1)
        var /= n
    else:
        var = 0.0
    return mean, envelope * float(np.sqrt(var))


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # not available on every platform
        return os.cpu_count() or 1


def _compute_points(device: DeviceModel, terms: list, points: list,
                    n_traj: int, values: np.ndarray,
                    errs: np.ndarray) -> None:
    """values[k], errs[k] of each point (k, seq, rng), on W threads.

    W = min(CPUs, points); worker w computes points w, w + W, ... in its own
    workspace, and the calling thread is worker 0.  The first exception a
    worker raises is raised here once every worker has stopped.
    """
    if not points:
        return
    n_workers = min(_cpus(), len(points))
    spaces = [_Workspace(n_traj) for _ in range(n_workers)]
    failures = []

    def work(w):
        try:
            for k, seq, rng in points[w::n_workers]:
                values[k], errs[k] = _coherence(device, seq, terms, rng,
                                                spaces[w])
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
                       stream: int = 0) -> tuple[complex, float]:
    """Ensemble-averaged coherence at t = seq.total_time, with standard error.

    Returns e^{-gamma_tilde T} <e^{-i phi}> and the standard error of the
    complex mean (sqrt of summed quadrature variances over n_traj).  After
    an odd number of pulses the mean is conjugated into the lab frame (see
    the module docstring), so the value is `analytic.coherence` of the same
    train up to sampling noise: all-ground spectators give the static
    phase e^{-2i sum(nu) P(T)}, conjugated after an odd number of pulses.
    Drawn from stream `stream` of `ens`.
    """
    s = parse_spectator_init(s, device.n_spectators)
    return _coherence(device, seq, _terms(device, s), ens.rng(stream),
                      _Workspace(ens.n_traj))


def ensemble_trace(device: DeviceModel, s: SpectatorInit, times,
                   ens: EnsembleSpec,
                   cpmg_order: int | None = None) -> CoherenceTrace:
    """Trajectory-engine trace over a grid of total times.

    Each grid point is an independent experiment of ens.n_traj shots with its
    own counter-based stream, so the whole trace is reproducible per seed.
    With `cpmg_order` set, every point uses an explicit CPMG_n pulse train.
    The points run on one worker thread per CPU the process may use; the
    output is the same for any number of workers.
    """
    s = parse_spectator_init(s, device.n_spectators)
    terms = _terms(device, s)
    times = time_grid(times)
    values = np.ones(times.size, dtype=complex)
    errs = np.zeros(times.size)
    # Sequences and streams are made here, in the calling thread, so that
    # the workers call no public function.
    points = [(k, build_cpmg(T, cpmg_order), ens.rng(k))
              for k, T in enumerate(times) if T > 0]
    _compute_points(device, terms, points, ens.n_traj, values, errs)
    return CoherenceTrace(times=times, values=values, stderr=errs)
