"""Curve fitting for exponential decays and RB survival data."""

import numpy as np
import pytest

from sdid import fit_exponential, fit_rb, fitting, heuristic_rate, ramsey_trace


def test_exact_exponential_recovers_decay_time():
    t2 = 127e-6
    t = np.linspace(1e-6, 500e-6, 101)
    y = np.exp(-t / t2)
    fit = fit_exponential(t, y)
    assert abs(fit.params["t2"] - t2) / t2 <= 1e-4
    assert abs(fit.params["amplitude"] - 1.0) <= 1e-4
    assert abs(fit.params["offset"]) <= 1e-6
    assert fit.converged


def test_exponential_fit_is_a_fixed_point():
    t = np.linspace(1e-6, 400e-6, 80)
    y = 0.9 * np.exp(-t / 60e-6) + 0.05
    first = fit_exponential(t, y)
    regenerated = (first.params["amplitude"]
                   * np.exp(-first.params["rate"] * t)
                   + first.params["offset"])
    second = fit_exponential(t, regenerated)
    for key in ("amplitude", "rate", "offset"):
        scale = max(abs(first.params[key]), 1e-12)
        assert abs(first.params[key] - second.params[key]) / scale <= 1e-8


def test_exponential_offset_pinning():
    t = np.linspace(1e-6, 300e-6, 60)
    y = np.exp(-t / 80e-6)
    fit = fit_exponential(t, y, offset=0.0)
    assert fit.params["offset"] == 0.0
    assert fit.stderr["offset"] == 0.0
    assert abs(fit.params["t2"] - 80e-6) / 80e-6 <= 1e-6


def test_exponential_input_validation():
    with pytest.raises(ValueError):
        fit_exponential([1.0, 2.0, 3.0], [1.0, 0.5, 0.3])
    with pytest.raises(ValueError):
        fit_exponential([1.0, 2.0, 3.0, 4.0], [1.0, 0.5, -0.1, 0.2])


def test_non_convergence_is_a_note_not_a_warning(monkeypatch):
    # The record says it once; no Python warning is raised.
    real = fitting._levenberg_marquardt

    def stalled(*args, **kwargs):
        theta, cov, _, res = real(*args, **kwargs)
        return theta, cov, False, res

    monkeypatch.setattr(fitting, "_levenberg_marquardt", stalled)
    t = np.linspace(1e-6, 300e-6, 60)
    fit = fit_exponential(t, np.exp(-t / 80e-6))
    assert not fit.converged
    assert fit.warnings == ["fit did not converge; returning best iterate"]


def test_exact_rb_curve_recovers_p():
    p = 0.998
    m = np.array([1, 10, 25, 50, 100, 200, 400, 800])
    y = 0.5 + 0.5 * p ** m
    fit = fit_rb(m, y)
    assert abs(fit.params["p"] - p) <= 1e-6
    assert abs(fit.params["epc"] - (1.0 - p) / 2.0) <= 1e-6
    assert fit.converged
    # The asymptote is pinned to 1/2 by default.
    assert fit.params["offset"] == 0.5 and fit.stderr["offset"] == 0.0
    assert fit == fit_rb(m, y, offset=0.5)


def test_error_free_rb_curve_gives_zero_epc():
    m = np.array([1, 10, 100, 400])
    y = np.full(m.size, 1.0)
    fit = fit_rb(m, y, offset=0.5)
    assert abs(fit.params["p"] - 1.0) <= 1e-9
    assert abs(fit.params["epc"]) <= 1e-9
    # It decays from 1 to the asymptote by A = 1/2 over zero steps: p = 1
    # is determined.
    assert fit.warnings == []


RB_FLAT_NOTE = ("the fitted curve does not decay from its asymptote: p is "
                "not determined")


def test_rb_fit_notes_a_p_it_cannot_trust():
    # A curve at its asymptote fits A ~ 3e-18, and any p fits it: the fit
    # converges with zero stderrs, so only the note says that p is unknown.
    m = np.array([1, 10, 50, 100, 400])
    fit = fit_rb(m, np.full(m.size, 0.5))
    assert fit.converged
    assert abs(fit.params["amplitude"]) <= 1e-15
    assert fit.warnings == [RB_FLAT_NOTE]
    # A curve that rises away from 1/2 fits p above 1.
    fit = fit_rb(m, 0.5 + 0.4 * (1.0 - 0.99 ** m))
    assert "fitted p = 1.00351 outside (0, 1]" in fit.warnings
    assert RB_FLAT_NOTE not in fit.warnings


def test_rb_offset_pinning_resolves_shallow_degeneracy():
    # For a shallow decay only A (1 - p) is well constrained; pinning the
    # asymptote restores an unbiased p.
    p = 0.99995
    m = np.array([1, 50, 100, 200, 400, 800, 1600])
    y = 0.5 + 0.5 * p ** m
    fit = fit_rb(m, y, offset=0.5)
    assert abs(fit.params["p"] - p) <= 1e-7


def test_rb_needs_three_distinct_lengths():
    with pytest.raises(ValueError):
        fit_rb([5, 5, 5], [0.9, 0.9, 0.9])


def test_fit_of_slow_coupling_trace_lands_near_heuristic_time(device_b):
    # nu ~ gamma: the heuristic single-exponential is only approximate, so
    # the fitted decay time agrees at the tens-of-percent level.
    rate = heuristic_rate(device_b, "111")
    times = np.linspace(1e-6, 5.0 / rate, 200)
    mags = np.abs(ramsey_trace(device_b, "111", times).values)
    fit = fit_exponential(times, mags, offset=0.0)
    assert abs(fit.params["t2"] - 1.0 / rate) * rate <= 0.25
