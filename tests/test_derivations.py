"""Secular, partial-secular, and coarse-grained master-equation builders."""

import numpy as np
import pytest

from sdid import (BathSpectrum, RateMatrix, bohr_spectrum, build_bmpsa,
                  build_bmrwa, build_cetcg, cetcg_rate, choi_matrix,
                  cluster_bohr, two_qubit_cetcg_reference, two_qubit_coupling,
                  two_qubit_hamiltonian)
from sdid import operators as ops
from sdid.derivations import sinc

OMEGA0, OMEGA1, NU = 500.0, 700.0, 1.0


def _two_qubit_terms(a=0.0):
    h_s = two_qubit_hamiltonian(OMEGA0, OMEGA1, NU)
    return bohr_spectrum(h_s, two_qubit_coupling(a=a))


def test_sinc_convention():
    assert sinc(0.0) == 1.0
    assert np.isclose(sinc(np.pi), 0.0, atol=1e-15)
    assert np.isclose(sinc(np.pi / 2), 2.0 / np.pi)


def test_single_qubit_bohr_components():
    omega = 5.0
    h = -0.5 * omega * ops.Z  # excited state |1> at +omega/2
    terms = bohr_spectrum(h, ops.X)
    freqs = sorted(t.frequency for t in terms)
    assert np.allclose(freqs, [-omega, omega])
    by_freq = {round(t.frequency, 9): t.op for t in terms}
    assert np.allclose(by_freq[omega], ops.SIGMA_MINUS, atol=1e-12)
    assert np.allclose(by_freq[-omega], ops.SIGMA_PLUS, atol=1e-12)


def test_bohr_components_are_complete():
    for a in (0.0, 0.3):
        x = two_qubit_coupling(a=a)
        terms = _two_qubit_terms(a=a)
        total = np.sum([t.op for t in terms], axis=0)
        assert np.max(np.abs(total - x)) <= 1e-12


def test_two_qubit_bohr_frequencies():
    # Bare coupling: only the spectator transitions, split by the ZZ shift.
    freqs = sorted(t.frequency for t in _two_qubit_terms(a=0.0))
    expected = sorted([OMEGA1 - 2 * NU, OMEGA1 + 2 * NU,
                       -(OMEGA1 - 2 * NU), -(OMEGA1 + 2 * NU)])
    assert np.allclose(freqs, expected)
    # Hybridized coupling: the control transitions appear as well.
    freqs8 = sorted(t.frequency for t in _two_qubit_terms(a=0.3))
    expected8 = sorted([s * (w + p * 2 * NU)
                        for s in (1, -1) for w in (OMEGA0, OMEGA1)
                        for p in (1, -1)])
    assert len(freqs8) == 8
    assert np.allclose(freqs8, expected8)


def test_bohr_rejects_non_hermitian_hamiltonian():
    with pytest.raises(ValueError):
        bohr_spectrum(ops.SIGMA_MINUS, ops.X)


def test_secular_builder_uses_projected_jumps():
    terms = _two_qubit_terms(a=0.0)
    bundle = build_bmrwa(terms, BathSpectrum.flat(1.0))
    # zero temperature: only the two positive frequencies survive
    assert len(bundle.jump_terms) == 2
    p0 = np.outer(ops.KET_0, ops.KET_0.conj())
    p1 = np.outer(ops.KET_1, ops.KET_1.conj())
    expected_ops = {ops.kron(p0, ops.SIGMA_MINUS).tobytes(),
                    ops.kron(p1, ops.SIGMA_MINUS).tobytes()}
    got = {np.round(op, 9).tobytes() for _, op in bundle.jump_terms}
    assert got == expected_ops


def test_clustering_groups_split_transitions():
    terms = _two_qubit_terms(a=0.0)
    clusters = cluster_bohr(terms, delta_omega=3.0 * NU)
    assert len(clusters) == 2
    assert sorted(len(c.members) for c in clusters) == [2, 2]
    # zero width: one cluster per distinct frequency
    singles = cluster_bohr(terms, delta_omega=0.0)
    assert len(singles) == 4
    with pytest.raises(ValueError):
        cluster_bohr(terms, delta_omega=-1.0)


def test_zero_width_clusters_reduce_to_secular():
    terms = _two_qubit_terms(a=0.0)
    bath = BathSpectrum.flat(1.0)
    rwa = build_bmrwa(terms, bath)
    singles = cluster_bohr(terms, delta_omega=0.0)
    psa = build_bmpsa(singles, bath)
    assert np.max(np.abs(psa.superop - rwa.superop)) <= 1e-12
    cg = build_cetcg(singles, bath, tau_c=1.0)
    assert np.max(np.abs(cg.superop - rwa.superop)) <= 1e-12


def test_coarse_graining_time_interpolates_between_limits():
    terms = _two_qubit_terms(a=0.0)
    bath = BathSpectrum.flat(1.0)
    clusters = cluster_bohr(terms, delta_omega=3.0 * NU)
    short = build_cetcg(clusters, bath, tau_c=1e-6 / NU)
    psa = build_bmpsa(clusters, bath)
    rel = (np.linalg.norm(short.superop - psa.superop)
           / np.linalg.norm(psa.superop))
    assert rel <= 1e-6
    long_cg = build_cetcg(clusters, bath, tau_c=1e6 / NU)
    rwa = build_bmrwa(terms, bath)
    rel = (np.linalg.norm(long_cg.superop - rwa.superop)
           / np.linalg.norm(rwa.superop))
    assert rel <= 1e-6


def test_builder_matches_two_qubit_reference():
    terms = _two_qubit_terms(a=0.0)
    bath = BathSpectrum.flat(1.0)
    clusters = cluster_bohr(terms, delta_omega=3.0 * NU)
    for x in (0.001, 0.1, 1.0, 10.0, 1000.0):
        built = build_cetcg(clusters, bath, tau_c=x / NU)
        ref = two_qubit_cetcg_reference(NU, x / NU, 1.0)
        assert np.max(np.abs(built.superop - ref.superop)) <= 1e-10


def test_rate_matrix_is_positive_semidefinite(rng):
    for _ in range(30):
        k = int(rng.integers(2, 6))
        freqs = rng.uniform(-50.0, 50.0, size=k)
        tau_c = float(rng.uniform(1e-3, 10.0))
        gamma_bar = float(rng.uniform(0.1, 5.0))
        rm = RateMatrix.build(freqs, tau_c, gamma_bar)
        assert np.max(np.abs(rm.matrix - rm.matrix.conj().T)) <= 1e-12
        assert rm.min_eigenvalue() >= -1e-10 * np.trace(rm.matrix).real


def test_cetcg_rate_properties():
    assert cetcg_rate(3.0, 3.0, 0.7, 2.0) == 2.0
    r = cetcg_rate(1.0, 4.0, 0.7, 2.0)
    assert np.isclose(cetcg_rate(4.0, 1.0, 0.7, 2.0), np.conj(r))
    with pytest.raises(ValueError):
        cetcg_rate(1.0, 2.0, 0.0, 1.0)


def _cetcg_rate_quadrature(omega: float, omega_p: float, tau_c: float,
                           tau_b: float | None = None,
                           gamma_bar: float = 1.0,
                           n_points: int = 800) -> complex:
    """Diagnostic: evaluate the coarse-grained rate by direct double quadrature.

    Uses an exponentially decaying bath correlation with timescale tau_b
    (default tau_c / 100) normalized so that the flat-spectrum rate is
    gamma_bar; agreement with :func:`cetcg_rate` is up to O(tau_b / tau_c)
    corrections and the Lamb-shift term neglected in the closed form.
    """
    tau_b = tau_b if tau_b is not None else tau_c / 100.0
    # C(u) = gamma_bar / (2 tau_b) exp(-|u| / tau_b): integral over u gives
    # gamma_bar, so Gamma(Omega) ~ gamma_bar for |Omega| tau_b << 1.
    nodes, weights = np.polynomial.legendre.leggauss(n_points)
    s = 0.5 * tau_c * (nodes + 1.0)
    w = 0.5 * tau_c * weights
    corr = (gamma_bar / (2.0 * tau_b)
            * np.exp(-np.abs(s[:, None] - s[None, :]) / tau_b))
    phase = np.exp(1j * (omega_p * s[:, None] - omega * s[None, :]))
    integral = w @ (corr * phase) @ w
    return complex(integral / tau_c)


def test_cetcg_rate_against_quadrature():
    # Valid regime: bath correlation time much shorter than tau_c and
    # |Omega| tau_b << 1.
    tau_c, tau_b = 0.5, 1e-3
    got = _cetcg_rate_quadrature(-1.0, 1.0, tau_c, tau_b=tau_b,
                                 gamma_bar=1.0, n_points=2000)
    want = cetcg_rate(-1.0, 1.0, tau_c, 1.0)
    assert abs(got - want) <= 0.05 * abs(want)
    got_eq = _cetcg_rate_quadrature(1.0, 1.0, tau_c, tau_b=tau_b,
                                    gamma_bar=1.0, n_points=2000)
    assert abs(got_eq - 1.0) <= 0.05


def test_secular_vs_partial_secular_are_physically_distinct():
    # The fully secular generator uses spectator-projected jump operators:
    # a decay of an excited spectator scrambles a control superposition.
    # The partial-secular collective jump acts on the spectator alone and
    # leaves the control coherence untouched.
    terms = _two_qubit_terms(a=0.0)
    bath = BathSpectrum.flat(1.0)
    rwa = build_bmrwa(terms, bath)
    psa = build_bmpsa(cluster_bohr(terms, delta_omega=3.0 * NU), bath)
    plus = np.outer(ops.KET_PLUS, ops.KET_PLUS.conj())
    excited = np.outer(ops.KET_1, ops.KET_1.conj())
    rho0 = ops.kron(plus, excited)
    t = 1.0
    for bundle, decays in ((rwa, True), (psa, False)):
        rho = ops.unvectorize(ops.expm(bundle.superop * t)
                              @ ops.vectorize(rho0))
        coh = abs(np.trace(rho[:2, 2:]))
        if decays:
            assert coh < 0.45
        else:
            assert np.isclose(coh, 0.5, atol=1e-10)


def test_choi_matrix_of_short_time_channels_is_psd():
    terms = _two_qubit_terms(a=0.0)
    bath = BathSpectrum.flat(1.0)
    clusters = cluster_bohr(terms, delta_omega=3.0 * NU)
    for bundle in (build_bmrwa(terms, bath), build_bmpsa(clusters, bath),
                   build_cetcg(clusters, bath, tau_c=1.0),
                   two_qubit_cetcg_reference(NU, 1.0, 1.0)):
        chan = ops.expm(bundle.superop * 1e-3)
        evals = np.linalg.eigvalsh(choi_matrix(chan))
        assert evals.min() >= -1e-9


def test_choi_of_identity_channel():
    choi = choi_matrix(np.eye(4, dtype=complex))
    evals = np.sort(np.linalg.eigvalsh(choi).real)
    assert np.allclose(evals, [0.0, 0.0, 0.0, 2.0], atol=1e-12)
