"""Secular, partial-secular, and coarse-grained master-equation builders."""

import numpy as np
import pytest

from sdid import (DeviceModel, DissipativeGenerator, QubitParams,
                  RateMatrix, bohr_spectrum, build_bmpsa, build_cetcg,
                  build_liouvillian, cetcg_rate, choi_matrix, cluster_bohr,
                  conditional_channel, two_qubit_cetcg_reference,
                  two_qubit_coupling, two_qubit_hamiltonian)
from sdid import operators as ops
from sdid.derivations import sinc, two_qubit_kossakowski

OMEGA0, OMEGA1, NU = 500.0, 700.0, 1.0


def _two_qubit_terms(a=0.0, omega0=OMEGA0, omega1=OMEGA1, nu=NU):
    h_s = two_qubit_hamiltonian(omega0, omega1, nu)
    return bohr_spectrum(h_s, two_qubit_coupling(a=a))


def _secular(terms, gamma0=1.0):
    """The fully secular generator: partial secular over zero-width clusters."""
    return build_bmpsa(cluster_bohr(terms, delta_omega=0.0), gamma0)


def _secular_reference(terms, gamma0):
    """One dissipator per Bohr term at rate gamma0, at positive frequencies
    only (zero temperature), and no Hamiltonian."""
    d = terms[0].op.shape[0]
    jumps = [(gamma0, t.op) for t in terms if t.frequency > 0]
    return DissipativeGenerator(tuple(jumps), d)


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
    bundle = _secular(terms)
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
    # Partial secular over zero-width clusters is the secular generator bit
    # for bit; the coarse-grained one approaches it.
    hamiltonians = ((OMEGA0, OMEGA1, NU), (OMEGA0, OMEGA1, 0.0),
                    (5.0, 7.0, 1.5))
    for omega0, omega1, nu in hamiltonians:
        for a in (0.0, 0.3, 1.0):
            terms = _two_qubit_terms(a, omega0, omega1, nu)
            singles = cluster_bohr(terms, delta_omega=0.0)
            for gamma0 in (1.0, 0.37):
                rwa = _secular_reference(terms, gamma0)
                psa = build_bmpsa(singles, gamma0)
                assert len(psa.jump_terms) == len(rwa.jump_terms) > 0
                for (rate, op), (ref_rate, ref_op) in zip(psa.jump_terms,
                                                          rwa.jump_terms):
                    assert rate == ref_rate
                    assert np.array_equal(op, ref_op)
                assert np.array_equal(psa.superop, rwa.superop)
                cg = build_cetcg(singles, gamma0, tau_c=1.0)
                assert np.max(np.abs(cg.superop - rwa.superop)) <= 1e-12


def test_coarse_graining_time_interpolates_between_limits():
    terms = _two_qubit_terms(a=0.0)
    clusters = cluster_bohr(terms, delta_omega=3.0 * NU)
    short = build_cetcg(clusters, 1.0, tau_c=1e-6 / NU)
    # One jump per eigenvalue of the cluster's rate matrix above a relative
    # cut-off of 1e-14: the smaller one is ~7e-13 here and falls below the
    # cut-off at tau_c = 1e-9 / nu.
    assert len(short.jump_terms) == 2
    assert len(build_cetcg(clusters, 1.0, tau_c=1e-9 / NU).jump_terms) == 1
    psa = build_bmpsa(clusters, 1.0)
    rel = (np.linalg.norm(short.superop - psa.superop)
           / np.linalg.norm(psa.superop))
    assert rel <= 1e-6
    long_cg = build_cetcg(clusters, 1.0, tau_c=1e6 / NU)
    rwa = _secular(terms)
    rel = (np.linalg.norm(long_cg.superop - rwa.superop)
           / np.linalg.norm(rwa.superop))
    assert rel <= 1e-6


def test_builder_matches_two_qubit_reference():
    terms = _two_qubit_terms(a=0.0)
    clusters = cluster_bohr(terms, delta_omega=3.0 * NU)
    for x in (0.001, 0.1, 1.0, 10.0, 1000.0):
        built = build_cetcg(clusters, 1.0, tau_c=x / NU)
        ref = two_qubit_cetcg_reference(NU, x / NU, 1.0)
        assert isinstance(ref, np.ndarray) and ref.shape == (16, 16)
        assert np.max(np.abs(built.superop - ref)) <= 1e-10


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
    with pytest.raises(ValueError, match="tau_c must be positive"):
        two_qubit_kossakowski(1.0, 0.0, 1.0)
    # The frequencies broadcast, and a rate matrix is one such call; a
    # repeated frequency gets gamma_bar exactly.
    freqs = np.array([-1.5, 0.25, 0.25, 3.0])
    m = cetcg_rate(freqs[:, None], freqs[None, :], 0.7, 2.0)
    assert np.array_equal(m, [[cetcg_rate(a, b, 0.7, 2.0) for b in freqs]
                              for a in freqs])
    assert np.array_equal(RateMatrix.build(freqs, 0.7, 2.0).matrix, m)
    assert m[1, 2] == 2.0


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
    rwa = _secular(terms)
    psa = build_bmpsa(cluster_bohr(terms, delta_omega=3.0 * NU), 1.0)
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
    clusters = cluster_bohr(terms, delta_omega=3.0 * NU)
    bundles = (_secular(terms), build_bmpsa(clusters, 1.0),
               build_cetcg(clusters, 1.0, tau_c=1.0))
    for superop in ([b.superop for b in bundles]
                    + [two_qubit_cetcg_reference(NU, 1.0, 1.0)]):
        chan = ops.expm(superop * 1e-3)
        evals = np.linalg.eigvalsh(choi_matrix(chan))
        assert evals.min() >= -1e-9


def test_choi_of_identity_channel():
    choi = choi_matrix(np.eye(4, dtype=complex))
    evals = np.sort(np.linalg.eigvalsh(choi).real)
    assert np.allclose(evals, [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_choi_matrix_is_its_definition(rng):
    """choi_matrix reads sum_ij |i><j| (x) E(|i><j|) off the superoperator;
    it equals the sum built from d*d applications of E, bit for bit."""
    for d in (2, 3, 4):
        superop = (rng.standard_normal((d * d, d * d))
                   + 1j * rng.standard_normal((d * d, d * d)))
        expected = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                e_ij = np.zeros((d, d), dtype=complex)
                e_ij[i, j] = 1.0
                out = ops.unvectorize(superop @ ops.vectorize(e_ij))
                expected += np.kron(e_ij, out)
        assert choi_matrix(superop).tobytes() == expected.tobytes()


def test_conditional_channel_is_the_projected_propagator(rng):
    """The channel is <j|_s P(t) (rho_c (x) |i><i|) |j>_s over the four unit
    rho_c, divided by its (0, 0) entry, the transition probability."""
    for _ in range(6):
        nu = float(rng.uniform(1e4, 2e5))
        gamma1 = float(rng.uniform(1e3, 2e4))
        t = float(rng.uniform(1e-8, 5e-7))
        device = DeviceModel(
            control=QubitParams(label="control"),
            spectators=((QubitParams(gamma=gamma1, label="spectator"), nu),))
        prop = ops.expm(build_liouvillian(device).superop * t)
        for i, j in ((0, 0), (1, 1), (1, 0)):
            ket_i = ops.KET_1 if i else ops.KET_0
            bra_j = (ops.KET_1 if j else ops.KET_0).conj().reshape(1, 2)
            project = ops.kron_all([ops.I2, bra_j, ops.I2, bra_j])
            rho_s = np.outer(ket_i, ket_i.conj())
            lifted = np.empty((4, 4), dtype=complex)
            for m in range(4):
                rho_c = ops.unvectorize(np.eye(4)[m])
                lifted[:, m] = (project @ prop
                                @ ops.vectorize(np.kron(rho_c, rho_s)))
            chan = conditional_channel(i, j, nu, gamma1, t)
            assert chan.norm == lifted[0, 0].real
            assert np.array_equal(chan.superop, lifted / lifted[0, 0].real)
