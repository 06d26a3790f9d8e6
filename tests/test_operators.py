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
    # Device B's Liouvillian splits into 3^4 sectors, and its scattered
    # block exponentials are the exponential of the dense matrix.  The
    # component finder also splits a permuted block-diagonal matrix into
    # its 3 blocks and keeps a dense matrix whole.
    rng = np.random.default_rng(7)
    bundle = build_liouvillian(device_b)
    assert sum(idx.shape[0] for idx, _ in bundle.sectors) == 81
    scattered = model._assemble(bundle.dim ** 2,
                                model._step_propagator(bundle, 5e-6))
    full = scipy.linalg.expm(bundle.superop * 5e-6)
    assert np.max(np.abs(scattered - full)) <= 1e-13
    blocks = scipy.linalg.block_diag(*(_random_complex(rng, n) * 0.3
                                       for n in (5, 1, 8)))
    perm = rng.permutation(blocks.shape[0])
    permuted = blocks[np.ix_(perm, perm)]
    dense = _random_complex(rng, 12) * 0.3
    for m, n_components in ((permuted, 3), (dense, 1)):
        labels = model._component_labels(*np.nonzero(m), m.shape[0])
        assert np.unique(labels).size == n_components


def test_expm_of_a_stack_is_the_expm_of_each_matrix(rng):
    stack = np.stack([_random_complex(rng, 6) * 0.3 for _ in range(4)])
    out = ops.expm(stack)
    for m, e in zip(stack, out):
        assert np.array_equal(e, scipy.linalg.expm(m))


def test_expm_rejects_bad_input():
    with pytest.raises(ValueError):
        ops.expm(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ops.expm(np.array([[np.inf, 0], [0, 0]]))


def test_hermiticity_checks():
    assert ops.hermiticity_defect(ops.X) == 0.0
    assert np.isclose(ops.hermiticity_defect(ops.SIGMA_MINUS), 1.0)
