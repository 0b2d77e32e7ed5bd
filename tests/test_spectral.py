"""Perron data, M-matrix inverses, adjugates, and the cofactor eigenvector law."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bbepi as bb
from conftest import random_metzler_hurwitz

rng0 = np.random.default_rng


def random_irreducible_nonneg(rng, k):
    M = rng.uniform(0.1, 2.0, size=(k, k))
    return M


def test_spectral_abscissa_matches_dense_eigen():
    rng = rng0(10)
    for _ in range(20):
        M = random_metzler_hurwitz(rng, int(rng.integers(2, 7)))
        assert bb.spectral_abscissa(M) == pytest.approx(
            np.max(np.linalg.eigvals(M).real), abs=1e-12)


def test_irreducibility_detects_block_structure():
    assert bb.is_irreducible(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not bb.is_irreducible(np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_perron_positive_matrix_agrees_with_dense():
    rng = rng0(11)
    for _ in range(30):
        k = int(rng.integers(2, 9))
        M = random_irreducible_nonneg(rng, k)
        data = bb.perron(M)
        eigs = np.linalg.eigvals(M)
        assert data.rho == pytest.approx(np.max(np.abs(eigs)), rel=1e-10)
        # Residuals of both eigenvectors at the reported eigenvalue.
        assert np.max(np.abs(M @ data.w_right - data.rho * data.w_right)) <= 1e-9
        assert np.max(np.abs(data.pi_left @ M - data.rho * data.pi_left)) <= 1e-9
        assert data.w_right.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(data.pi_left @ data.w_right) == pytest.approx(1.0, abs=1e-9)


def test_perron_metzler_shift_invariance():
    rng = rng0(12)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        M = random_metzler_hurwitz(rng, k)
        data = bb.perron(M)
        # Spectral abscissa eigenpair: M w = s w even with negative diagonal.
        assert np.max(np.abs(M @ data.w_right - data.s_abs * data.w_right)) <= 1e-9
        assert data.s_abs == pytest.approx(bb.spectral_abscissa(M), abs=1e-10)


def test_perron_reducible_reports_full_spectrum_radius():
    M = np.array([[2.0, 0.0], [1.0, 1.0]])
    data = bb.perron(M)
    assert not data.irreducible
    assert data.rho == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.1, 0.3, 1.0]), metzler=st.booleans())
def test_perron_matches_dense_spectrum(k, seed, density, metzler):
    # Sparse draws are often reducible; a Metzler draw gets a negative
    # diagonal, which can move the largest modulus off the rightmost root.
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.0, 2.0, size=(k, k)) * (rng.random((k, k)) < density)
    if metzler:
        M[np.diag_indices(k)] = -rng.uniform(0.0, 4.0, size=k)
    eigs = np.linalg.eigvals(M)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    tol = 1e-7 * scale
    data = bb.perron(M)
    assert data.irreducible == bb.is_irreducible(M)
    assert data.s_abs == pytest.approx(float(np.max(eigs.real)), abs=tol)
    assert data.rho == pytest.approx(float(np.max(np.abs(eigs))), abs=tol)
    if data.irreducible:
        w, pi = data.w_right, data.pi_left
        assert np.min(w) >= 0.0 and np.min(pi) >= 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(pi @ w) == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(M @ w - data.s_abs * w)) <= 1e-9 * scale
        assert np.max(np.abs(pi @ M - data.s_abs * pi)) <= 1e-9 * scale * np.max(pi)


def test_m_inverse_is_nonnegative_and_exact():
    rng = rng0(13)
    for _ in range(30):
        k = int(rng.integers(1, 7))
        A = random_metzler_hurwitz(rng, k)
        Minv = bb.m_inverse(A)
        assert np.min(Minv) >= -1e-12
        assert np.max(np.abs(Minv @ (-A) - np.eye(k))) <= 1e-10


def test_m_inverse_rejects_singular():
    with pytest.raises(bb.SingularMatrix):
        bb.m_inverse(np.array([[0.0, 0.0], [0.0, -1.0]]))


def test_adjugate_matches_inverse_route():
    rng = rng0(14)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        M = rng.uniform(-1.0, 1.0, size=(k, k)) + 2.0 * np.eye(k)
        expected = np.linalg.det(M) * np.linalg.inv(M)
        assert bb.adjugate(M) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("k", [11, 12])
def test_adjugate_of_a_nonsingular_matrix_above_ten(k):
    M = rng0(k).uniform(-1.0, 1.0, size=(k, k)) + 3.0 * np.eye(k)
    expected = np.linalg.det(M) * np.linalg.inv(M)
    assert np.max(np.abs(bb.adjugate(M) - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_adjugate_of_singular_matrix_is_rank_one():
    # Laplacian-style singular matrix: adj rows equal, known closed form.
    N = np.array([[1.0, -1.0], [-2.0, 2.0]])
    adj = bb.adjugate(N)
    assert adj == pytest.approx(np.array([[2.0, 1.0], [2.0, 1.0]]), abs=1e-12)


def test_kirchhoff_cofactors_proportional_to_eigenvector_products():
    rng = rng0(15)
    for _ in range(50):
        k = int(rng.integers(2, 9))
        J = random_metzler_hurwitz(rng, k)
        J = J + np.diag(rng.uniform(0.0, 0.5, size=k))  # vary the abscissa
        if not bb.is_irreducible(J):
            continue
        data = bb.kirchhoff_perron(J)
        against = data.w * data.pi
        ratio = data.cofactors / against
        spread = (np.max(ratio) - np.min(ratio)) / np.max(np.abs(ratio))
        assert spread <= 1e-7
        assert data.scale == pytest.approx(np.mean(ratio), rel=1e-6)


def test_kirchhoff_markov_chain_stationary_distribution():
    # For a generator Q (columns sum to zero), lambda_P = 0 and the diagonal
    # cofactors of -Q are proportional to the stationary distribution.
    Q = np.array([[-1.0, 2.0], [1.0, -2.0]])
    data = bb.kirchhoff_perron(Q)
    assert data.lambda_P == pytest.approx(0.0, abs=1e-12)
    stationary = data.cofactors / data.cofactors.sum()
    assert stationary == pytest.approx(np.array([2.0 / 3.0, 1.0 / 3.0]), abs=1e-12)


def test_kirchhoff_scalar_case():
    data = bb.kirchhoff_perron(np.array([[-3.0]]))
    assert data.lambda_P == pytest.approx(-3.0)
    assert data.cofactors == pytest.approx(np.array([1.0]))


def test_kirchhoff_rejects_degenerate_eigenvalue():
    # Two decoupled blocks share the rightmost eigenvalue, so the adjugate
    # of lambda_P*Id - J vanishes and the rank-one factorization fails.
    J = np.diag([-1.0, -1.0])
    with pytest.raises(bb.RankTestFailure):
        bb.kirchhoff_perron(J)


def test_kirchhoff_benign_reducible_still_consistent():
    # Triangular (reducible) input where the eigenvalue stays simple: the
    # returned data must still satisfy the proportionality it reports.
    J = np.array([[-1.0, 0.0], [1.0, -2.0]])
    data = bb.kirchhoff_perron(J)
    assert data.cofactors == pytest.approx(data.scale * data.w * data.pi,
                                           abs=1e-12)


def test_m_inverse_rejects_a_large_inversion_residual(monkeypatch):
    # A perturbed solve keeps every entry nonnegative, so only the residual
    # check (-A) X = Id can catch it.
    real = bb.spectral.solve
    monkeypatch.setattr(bb.spectral, "solve", lambda a, b: real(a, b) + 1e-6)
    with pytest.raises(bb.SingularMatrix, match="inversion residual"):
        bb.m_inverse(np.array([[-2.0, 0.5], [0.3, -1.0]]))
