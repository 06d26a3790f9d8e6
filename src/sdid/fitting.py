"""Damped least-squares curve fitting for decay curves and RB data.

Two models are supported: exponential decay A e^{-r t} + C for coherence
magnitudes (T2 = 1/r) and B + A p^m for randomized-benchmarking survival
(error per Clifford = (1 - p)/2).  A pinned parameter is a constant of its
model, which the fit neither varies nor differentiates.  An RB fit always
pins B, to 1/2 by default: the model has no state-preparation or
measurement error, so its survival decays to exactly 1/2.  Both fits run a
Levenberg-Marquardt loop with analytic Jacobians from data-driven guesses,
and flag non-convergence rather than raise it, returning the best iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The fewest points of an exponential fit and distinct lengths of an RB fit.
MIN_POINTS = 4
MIN_LENGTHS = 3

# Above this rms residual (in the units of the data, at most 1 for
# coherence magnitudes and survival probabilities) a fit carries a note that
# its model does not describe the curve.
MAX_RMS_RESIDUAL = 0.02

# When a fitted exponential changes by no more than this fraction of the
# largest magnitude across the data window, the curve does not decay and
# its T2 is not determined; when an RB fit's amplitude is no larger than
# this fraction of the largest survival, its p is not determined.
MIN_DECAY = 1e-9


@dataclass
class FitResult:
    params: dict[str, float]
    stderr: dict[str, float]
    residual_norm: float
    model: str
    converged: bool = True
    warnings: list[str] = field(default_factory=list)


def _levenberg_marquardt(residual_fn, jacobian_fn, theta0):
    """Minimize ||residual(theta)||^2 by damped normal equations.

    Converges when a step changes no parameter, or the cost, by more than
    1e-10 of itself; stops after 200 iterations.
    Returns (theta, covariance, converged, residual at theta).
    """
    theta = np.asarray(theta0, dtype=float)
    lam = 1e-3
    r = residual_fn(theta)
    cost = float(r @ r)
    converged = False
    for _ in range(200):
        jac = jacobian_fn(theta)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        stepped = False
        for _ in range(40):
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj))
                                        + 1e-300 * np.eye(theta.size), -jtr)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            trial = theta + delta
            r_trial = residual_fn(trial)
            cost_trial = float(r_trial @ r_trial)
            if np.isfinite(cost_trial) and cost_trial <= cost:
                rel_change = np.max(np.abs(delta)
                                    / np.maximum(np.abs(theta), 1e-300))
                cost_drop = cost - cost_trial
                theta, r, cost = trial, r_trial, cost_trial
                lam = max(lam / 10, 1e-12)
                stepped = True
                if rel_change < 1e-10 or cost_drop <= 1e-10 * cost:
                    converged = True
                break
            lam *= 10
        if not stepped:
            # Damping exhausted: no downhill step exists, treat as converged.
            converged = True
        if converged:
            break
    jac = jacobian_fn(theta)
    dof = max(r.size - theta.size, 1)
    sigma2 = cost / dof
    try:
        inv = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        inv = np.full((theta.size, theta.size), np.nan)
    # A degenerate Jacobian leaves entries that the data do not determine;
    # NaN marks them, and scaling a NaN raises no warning where inf * 0 does.
    inv[~np.isfinite(inv)] = np.nan
    return theta, sigma2 * inv, converged, r


def _fit(model: str, names, residual_fn, jacobian_fn, theta0,
         pinned: dict[str, float]) -> FitResult:
    """Run LM over theta0, the parameters of `names` that `pinned` lacks.

    A pinned parameter is a constant of the model: the residual and the
    Jacobian take the free ones only, in `names` order.  The result's params
    and stderr are keyed by `names`, a pinned one with stderr 0.  A fit that
    did not converge returns its best iterate, a stderr that the data do not
    determine is NaN, and a fit whose rms residual exceeds MAX_RMS_RESIDUAL
    is returned too; each carries a note in `warnings`.
    """
    theta, cov, converged, res = _levenberg_marquardt(
        residual_fn, jacobian_fn, theta0)
    free = iter(zip(theta, np.sqrt(np.abs(np.diag(cov)))))
    params, stderr = {}, {}
    for name in names:
        params[name], stderr[name] = ((pinned[name], 0.0) if name in pinned
                                      else next(free))
    notes = []
    if not converged:
        notes.append("fit did not converge; returning best iterate")
    undetermined = [name for name, se in stderr.items()
                    if not np.isfinite(se)]
    if undetermined:
        notes.append(f"the data do not determine the stderr of "
                     f"{', '.join(undetermined)}")
    residual_norm = float(np.linalg.norm(res))
    rms = residual_norm / np.sqrt(res.size)
    if rms > MAX_RMS_RESIDUAL:
        notes.append(f"rms residual {rms:.3g} exceeds {MAX_RMS_RESIDUAL}: "
                     f"the model {model} does not describe the data")
    return FitResult(params=params, stderr=stderr,
                     residual_norm=residual_norm, model=model,
                     converged=converged, warnings=notes)


def fit_exponential(times, magnitudes,
                    offset: float | None = None) -> FitResult:
    """Fit A e^{-r t} + C; reports rate r, t2 = 1/r, amplitude, and offset.

    Pass `offset` to pin C (e.g. 0 for data known to decay to zero), which
    stabilizes the fit when the data oscillates around its envelope.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(magnitudes, dtype=float)
    if t.size < MIN_POINTS:
        raise ValueError(f"fit_exponential needs at least {MIN_POINTS} points")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("fit_exponential needs finite times and magnitudes")
    if np.any(y <= 0):
        raise ValueError("magnitudes must be positive")

    # Log-linear seed on the floored data.
    floor = y.min() if offset is None else float(offset)
    shifted = np.maximum(y - floor, 0.0) + 1e-3 * (y.max() - floor + 1e-300)
    slope, intercept = np.polyfit(t, np.log(shifted), 1)
    a0 = np.exp(intercept)
    r0 = max(-slope, 0.0)
    if r0 <= 0:
        r0 = 1.0 / (t.max() - t.min() + 1e-300)

    # theta is (A, r, C), or (A, r) with C = offset; C's column is the last.
    def residual(theta):
        a, r, c = theta if offset is None else (*theta, floor)
        return a * np.exp(np.clip(-r * t, None, 50.0)) + c - y

    def jacobian(theta):
        a, r = theta[:2]
        e = np.exp(np.clip(-r * t, None, 50.0))
        return np.stack([e, -a * t * e, np.ones_like(t)][:theta.size],
                        axis=1)

    pinned = {} if offset is None else {"offset": floor}
    theta0 = [a0, r0] if pinned else [a0, r0, floor]
    fit = _fit("A*exp(-rate*t)+C", ("amplitude", "rate", "offset"),
               residual, jacobian, theta0, pinned)
    r, se_r = fit.params["rate"], fit.stderr["rate"]
    fit.params["t2"] = 1.0 / r if r > 0 else np.inf
    fit.stderr["t2"] = se_r / r ** 2 if r > 0 else np.inf
    if r <= 0:
        fit.warnings.append("fitted rate is non-positive")
    elif (abs(fit.params["amplitude"] * np.expm1(-r * np.ptp(t)))
          <= MIN_DECAY * y.max()):
        fit.warnings.append("the fitted curve does not decay over the data: "
                            "T2 is not determined")
    elif 1.0 / r > t.max():
        fit.warnings.append("T2 lies beyond the last time of the data: it "
                            "is an extrapolation")
    return fit


def fit_rb(lengths, survival, offset: float = 0.5) -> FitResult:
    """Fit B + A p^m with B pinned at `offset`; reports p, EPC = (1-p)/2,
    amplitude, and offset."""
    m = np.asarray(lengths, dtype=float)
    y = np.asarray(survival, dtype=float)
    if np.unique(m).size < MIN_LENGTHS:
        raise ValueError(f"fit_rb needs at least {MIN_LENGTHS} distinct "
                         f"lengths")
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(y))):
        raise ValueError("fit_rb needs finite lengths and survival")

    b0 = float(offset)
    a0 = y[np.argmin(m)] - b0
    if abs(a0) < 1e-6:
        a0 = 0.5
    span = m.max() - m.min()
    tail = (y[np.argmax(m)] - b0) / a0
    if tail > 0 and span > 0:
        p0 = float(np.clip(tail ** (1.0 / span), 1e-6, 1.0))
    else:
        p0 = 0.99

    # theta is (A, p); B = offset is a constant of the model.
    def residual(theta):
        a, p = theta
        return a * np.power(np.clip(p, 1e-12, None), m) + b0 - y

    def jacobian(theta):
        a, p = theta
        pc = np.clip(p, 1e-12, None)
        return np.stack([np.power(pc, m), a * m * np.power(pc, m - 1)],
                        axis=1)

    fit = _fit("B+A*p^m", ("amplitude", "offset", "p"), residual, jacobian,
               [a0, p0], {"offset": b0})
    p = fit.params["p"]
    fit.params["epc"] = (1.0 - p) / 2.0
    fit.stderr["epc"] = fit.stderr["p"] / 2.0
    if abs(fit.params["amplitude"]) <= MIN_DECAY * np.max(np.abs(y)):
        fit.warnings.append("the fitted curve does not decay from its "
                            "asymptote: p is not determined")
    elif not 0.0 < p <= 1.0 + 1e-12:
        fit.warnings.append(f"fitted p = {p:.6g} outside (0, 1]")
    return fit
