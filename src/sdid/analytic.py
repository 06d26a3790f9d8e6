"""Closed-form coherence of a control qubit dephased by decaying spectators.

A pi-pulse train enters through its parity integral P(t)
(`model.PulseSequence`): slope s_k = +-1 and P(a_k) = p_k on segment
k = [a_k, b_k]; Ramsey has no pulses, P(t) = t.  The coherence factorizes
over spectators.  One that keeps its state adds a static phase:
e^{-2i nu P(T)} in |0>, e^{+2i nu P(T)} in |1> with gamma = 0.  One that
decays at t_d ~ Exp(gamma) adds the phase 2 nu (P(T) - 2 P(min(t_d, T))),
whose average is exact because P is piecewise linear: with
c_k = -gamma + 4i nu s_k,

    E[e^{-i phi}] = e^{-2i nu P(T)} [sum_k gamma e^{4i nu (p_k - s_k a_k)}
        (e^{c_k b_k} - e^{c_k a_k}) / c_k + e^{-gamma T + 4i nu P(T)}],

or (4i nu e^{(2i nu - gamma) T} - gamma e^{-2i nu T}) / (4i nu - gamma) for
Ramsey.  The control's own decoherence multiplies all by e^{-gamma_tilde T},
and after an odd number of pulses the value is conjugated into the lab
frame, as in the trajectory engine.  This is the filter-function picture of
Cywinski et al., PRB 77, 174509 (2008), exact for one decay per spectator.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .model import (CoherenceTrace, DeviceModel, PulseSequence, SpectatorInit,
                    build_cpmg, parse_spectator_init, time_grid)


def _coherence(device: DeviceModel, s: SpectatorInit, seq: PulseSequence,
               scale) -> np.ndarray:
    """Coherence under `seq` stretched by `scale`: 1.0, or shape (..., 1).

    Segment k adds gamma / c_k (z_{k+1} - z_k) with z_k = e^{4i nu p_k -
    gamma a_k} at its boundaries (0, the pulses, T): neighbouring segments
    share their exponentials there.
    """
    s = parse_spectator_init(s, device.n_spectators)
    a = scale * np.append(seq.starts, seq.total_time)
    p = scale * np.append(seq.p_starts, seq.p_total)
    out = np.exp(-device.control.gamma_tilde * a[..., -1]) + 0j
    for bit, (q, nu) in zip(s, device.spectators):
        static = np.exp(-2j * nu * p[..., -1])
        if not bit:
            out = out * static
        elif q.gamma == 0:
            out = out * static.conj()
        else:
            z = np.exp(4j * nu * p - q.gamma * a)
            w = q.gamma / (4j * nu * seq.signs - q.gamma)
            out = out * static * (np.diff(z) @ w + z[..., -1])
    return out.conj() if len(seq.pulse_times) % 2 else out


def coherence(device: DeviceModel, s: SpectatorInit,
              seq: PulseSequence) -> complex:
    """Exact coherence at t = seq.total_time under the pulse train `seq`.

    The counterpart of `trajectory.ensemble_coherence`, conjugated the
    same way after an odd number of pulses.
    """
    return complex(_coherence(device, s, seq, 1.0))


def ramsey_trace(device: DeviceModel, s: SpectatorInit, times,
                 cpmg_order: int | None = None) -> CoherenceTrace:
    """Exact coherence over a grid of total times, starting at 1.

    With `cpmg_order` set, every point uses a CPMG_n train over its own
    window, as in `trajectory.ensemble_trace`.  CPMG_n at time T is T times
    CPMG_n at T = 1, so the grid is one broadcast over (times x segments).
    """
    times = time_grid(times)
    unit = build_cpmg(1.0, cpmg_order)
    return CoherenceTrace(times=times,
                          values=_coherence(device, s, unit, times[..., None]))


def heuristic_rate(device: DeviceModel, s: SpectatorInit) -> float:
    """Enhanced exponential decay rate 1/T2(0) + sum over excited spectators of 1/T1."""
    s = parse_spectator_init(s, device.n_spectators)
    rate = device.control.gamma_tilde
    for bit, (q, _) in zip(s, device.spectators):
        if bit:
            rate += q.gamma
    return rate


def cpmg_effective(device: DeviceModel, n: int) -> DeviceModel:
    """The paper's CPMG_n envelope model: every coupling replaced by nu/(n+1),
    rates unchanged.  `ramsey_trace(..., cpmg_order=n)` is the exact one."""
    if n < 0:
        raise ValueError("CPMG order must be >= 0")
    return dataclasses.replace(device, spectators=tuple(
        (q, nu / (n + 1)) for q, nu in device.spectators))


def phase_bounds(total_time: float, n: int, nu: float) -> tuple[float, float]:
    """Bounds (0, 2 nu T / (n+1)) on the random phase from one excited spectator."""
    if n < 0:
        raise ValueError("CPMG order must be >= 0")
    return 0.0, 2.0 * abs(nu) * total_time / (n + 1)
