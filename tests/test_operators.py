"""Operator algebra: tensor products, vectorization, matrix exponential."""

import numpy as np
import pytest
import scipy.linalg

from sdid import build_liouvillian, model
from sdid import operators as ops


def test_kron_matches_elementwise_definition(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    out = ops.kron(a, b)
    for i in range(2):
        for j in range(2):
            block = out[3 * i:3 * (i + 1), 3 * j:3 * (j + 1)]
            assert np.allclose(block, a[i, j] * b)


def test_embed_places_operator_at_site():
    assert np.array_equal(ops.embed(ops.Z, 0, 2), ops.kron(ops.Z, ops.I2))
    assert np.array_equal(ops.embed(ops.X, 2, 3),
                          ops.kron_all([ops.I2, ops.I2, ops.X]))
    # Bit for bit, signed zeros included, the product of all n factors.
    for op in (ops.Z, ops.X, ops.SIGMA_MINUS):
        for n in range(1, 6):
            for site in range(n):
                want = ops.kron_all([op if k == site else ops.I2
                                     for k in range(n)])
                got = ops.embed(op, site, n)
                assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        ops.embed(np.eye(3), 0, 2)
    with pytest.raises(ValueError):
        ops.embed(ops.X, 2, 2)


def test_kron_all_requires_operators():
    with pytest.raises(ValueError):
        ops.kron_all([])


def test_vectorize_is_column_stacking():
    rho = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ops.vectorize(rho), np.array([1.0, 3.0, 2.0, 4.0]))


def test_vectorize_round_trip(rng):
    rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(ops.unvectorize(ops.vectorize(rho)), rho)
    with pytest.raises(ValueError):
        ops.vectorize(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ops.unvectorize(np.zeros(5))


def test_sandwich_identity_on_random_triples(rng):
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs = ops.vectorize(a @ rho @ b)
        rhs = ops.sandwich(a, b) @ ops.vectorize(rho)
        assert np.allclose(lhs, rhs, atol=1e-12)
        assert np.allclose(ops.left_mult(a) @ ops.vectorize(rho),
                           ops.vectorize(a @ rho), atol=1e-12)
        assert np.allclose(ops.right_mult(b) @ ops.vectorize(rho),
                           ops.vectorize(rho @ b), atol=1e-12)


def test_trace_row_extracts_trace(rng):
    rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.isclose(ops.trace_row(3) @ ops.vectorize(rho), np.trace(rho))


def test_expm_matches_taylor_series(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m /= np.linalg.norm(m)
    taylor = np.zeros((4, 4), dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(50):
        taylor += term
        term = term @ m / (k + 1)
    assert np.max(np.abs(ops.expm(m) - taylor)) <= 1e-12


def test_expm_of_diagonal_rotation():
    theta = 0.7
    out = ops.expm(1j * theta * ops.Z)
    expected = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    assert np.allclose(out, expected, atol=1e-14)


def test_expm_commuting_sum_factorizes(rng):
    d1 = np.diag(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    d2 = np.diag(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    assert np.allclose(ops.expm(d1 + d2), ops.expm(d1) @ ops.expm(d2),
                       atol=1e-12)


def _random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_expm_block_split_matches_full_expm(device_b):
    # Device B's Liouvillian splits into 3^4 sectors, and the exponentials
    # of their blocks, V exp(lam dt) V^-1 from each block's
    # eigendecomposition and scattered, are the exponential of the dense
    # matrix.
    bundle = build_liouvillian(device_b)
    assert sum(idx.shape[0] for idx, _ in bundle.sectors) == 81
    steps = tuple((idx, (vecs * np.exp(lam * 5e-6)[:, None, :]) @ inv)
                  for idx, lam, vecs, inv in bundle.eigensectors)
    scattered = model._assemble(bundle.dim ** 2, steps)
    full = scipy.linalg.expm(bundle.superop * 5e-6)
    assert np.max(np.abs(scattered - full)) <= 1e-13


def _assert_matches_scipy(m, rtol=1e-13):
    # scipy's expm (Al-Mohy & Higham 2009) is the independent reference; the
    # error is taken relative to the result where that exceeds 1.
    ref = scipy.linalg.expm(m)
    bound = rtol * max(1.0, np.linalg.norm(ref, 1))
    assert np.max(np.abs(ops.expm(m) - ref)) <= bound


def test_expm_matches_scipy_on_every_sector_block(device_a, device_b,
                                                   device_b5):
    for device in (device_a, device_b, device_b5):
        bundle = build_liouvillian(device)
        for dt in (1e-6, 50e-6, 500e-6, 5e-3):
            for _, blocks in bundle.sectors:
                for m in blocks * dt:
                    _assert_matches_scipy(m)


def test_expm_matches_scipy_on_hard_matrices():
    rng = np.random.default_rng(2005)
    jordan = 2.0 * np.eye(6) + np.diag(np.ones(5), 1)   # defective
    # Strongly non-normal: off-diagonal entries up to ~100x the diagonal.
    triangular = (np.triu(30.0 * rng.standard_normal((8, 8)), 1)
                  - np.diag(np.arange(8.0)))
    for m in (jordan, triangular):
        _assert_matches_scipy(m)
    # Random matrices shifted to a spectrum in the closed left half-plane,
    # as the Lindblad generators are, so no exponential overflows.  The
    # exponential's condition number is at least ||A||_1, so at 1-norm 1e3
    # each algorithm is itself up to ~1.6e-13 from the exact result
    # (checked against 50-digit arithmetic); there the bound is 10u||A||_1.
    for norm in 10.0 ** np.arange(-8, 4):
        for n in (2, 5, 12):
            m = _random_complex(rng, n)
            m -= np.max(np.linalg.eigvals(m).real) * np.eye(n)
            _assert_matches_scipy(m * norm / np.linalg.norm(m, 1),
                                  rtol=max(1e-13, 1e-15 * norm))


def test_expm_of_zero_is_exactly_the_identity():
    assert np.array_equal(ops.expm(np.zeros((5, 5))), np.eye(5))


def test_expm_rejects_bad_input():
    with pytest.raises(ValueError):
        ops.expm(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ops.expm(np.array([[np.inf, 0], [0, 0]]))
    # One matrix only: a stack of them is not a matrix.
    with pytest.raises(ValueError):
        ops.expm(np.zeros((3, 4, 4)))


def test_hermiticity_checks():
    assert ops.hermiticity_defect(ops.X) == 0.0
    assert np.isclose(ops.hermiticity_defect(ops.SIGMA_MINUS), 1.0)
