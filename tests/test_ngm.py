"""Next-generation matrices, spectral identities, and closed-form eigenvectors."""

import numpy as np
import pytest

import bbepi as bb
from bbepi import ngm
from bbepi.ngm import loop_ngm
from conftest import random_model, with_r0

rng0 = np.random.default_rng


def test_force_of_infection_shape_and_values(sir):
    F = bb.force_of_infection(sir, np.array([0.5]))
    assert F == pytest.approx(np.array([[1.0]]))


def test_ngm_bundle_consistency():
    rng = rng0(20)
    model = random_model(rng, 3, 4)
    S = rng.uniform(0.2, 2.0, size=3)
    bundle = bb.ngm_at(model, S)
    Ainv = bb.m_inverse(model.A)
    assert bundle.F == pytest.approx(model.P @ (S[:, None] * model.B), abs=1e-12)
    assert bundle.K == pytest.approx(bundle.F @ Ainv, abs=1e-12)
    assert bundle.K_tilde == pytest.approx(Ainv @ bundle.F, abs=1e-12)


def test_spectral_radius_identity_both_orders():
    # rho(F (-A)^{-1}) = rho((-A)^{-1} F) = rho of the m x m loop form.
    rng = rng0(21)
    for _ in range(50):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        model = random_model(rng, m, n)
        S = rng.uniform(0.2, 2.0, size=m)
        bundle = bb.ngm_at(model, S)
        rho_K = bb.perron(bundle.K).rho
        rho_Kt = bb.perron(bundle.K_tilde).rho
        rho_loop = bb.perron(loop_ngm(model, S)).rho
        assert abs(rho_K - rho_Kt) <= 1e-10 * max(1.0, rho_K)
        assert abs(rho_K - rho_loop) <= 1e-10 * max(1.0, rho_K)


def test_homogeneity_exact_for_power_of_two_scalings():
    # Scaling S by a power of two rescales the loop NGM bitwise exactly,
    # because the column scaling is a product of exact float operations.
    rng = rng0(22)
    model = random_model(rng, 4, 3)
    S = rng.uniform(0.2, 2.0, size=4)
    base = loop_ngm(model, S)
    for t in (0.5, 2.0, 4.0):
        scaled = loop_ngm(model, t * S)
        assert np.array_equal(scaled, t * base)


def test_reproduction_number_is_rho_at_dfe(sir):
    assert bb.reproduction_number(sir) == pytest.approx(2.0, abs=1e-12)


def test_replacement_vector_first_law():
    # S0 . R = R0 across all rank-one structures.
    rng = rng0(23)
    for case in ("casep", "caseb"):
        for _ in range(20):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            model = random_model(rng, m, n, case)
            rank = bb.classify_rank(model)
            R = bb.replacement_vector(model, rank)
            S0 = bb.dfe(model)
            assert float(S0 @ R) == pytest.approx(
                bb.reproduction_number(model), rel=1e-10)


def test_replacement_vector_requires_rank_one():
    rng = rng0(24)
    model = random_model(rng, 3, 3, "general")
    rank = bb.classify_rank(model)
    with pytest.raises(bb.NotRankOne):
        bb.replacement_vector(model, rank)


def test_dwell_times_shared_routing_example():
    # Two-stage chain: enter stage 1, progress to stage 2 at rate 1,
    # leave stage 2 at rate 2; expected times (1, 1/2).
    A = np.array([[-1.0, 0.0], [1.0, -2.0]])
    model = bb.BilinearModel(A=A, A_S=[[-1.0]], B=[[1.0, 1.0]],
                             P=[[1.0], [0.0]], Lambda=[1.0])
    rank = bb.classify_rank(model)
    assert bb.dwell_times(model, rank) == pytest.approx([1.0, 0.5], abs=1e-12)


def test_eig_table_identities_casep():
    rng = rng0(25)
    for _ in range(20):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        model = random_model(rng, m, n, "casep")
        rank = bb.classify_rank(model)
        table = bb.eig_table(model, rank)
        R0 = bb.reproduction_number(model)
        # Exact exchange identities between the two conventions.
        assert table.w_K == pytest.approx(-(model.A @ table.w_Ktilde), abs=1e-12)
        assert table.pi_Ktilde == pytest.approx(-(table.pi_K @ model.A), abs=1e-12)
        # Both pairings produce R0.
        assert float(table.pi_K @ table.w_K) == pytest.approx(R0, rel=1e-10)
        assert float(table.pi_Ktilde @ table.w_Ktilde) == pytest.approx(R0, rel=1e-10)


def test_eig_table_vectors_are_eigenvectors():
    rng = rng0(26)
    for case in ("casep", "caseb"):
        model = random_model(rng, 3, 4, case)
        model = with_r0(model, 1.7)
        rank = bb.classify_rank(model)
        table = bb.eig_table(model, rank)
        S0 = bb.dfe(model)
        bundle = bb.ngm_at(model, S0)
        R0 = bb.reproduction_number(model)
        for M, w, pi in ((bundle.K, table.w_K, table.pi_K),
                         (bundle.K_tilde, table.w_Ktilde, table.pi_Ktilde)):
            assert M @ w == pytest.approx(R0 * w, abs=1e-9)
            assert pi @ M == pytest.approx(R0 * pi, abs=1e-9)


def test_eig_table_caseb_closed_forms():
    # Rank-one B: left eigenvector of K~ is the infectivity row beta itself.
    rng = rng0(27)
    model = random_model(rng, 3, 3, "caseb")
    rank = bb.classify_rank(model)
    table = bb.eig_table(model, rank)
    assert table.pi_Ktilde == pytest.approx(rank.beta, abs=1e-12)
    S0 = bb.dfe(model)
    assert table.w_K == pytest.approx(model.P @ (S0 * rank.alpha_m), abs=1e-12)


def test_ngm_rejects_negative_susceptibles():
    rng = rng0(28)
    model = random_model(rng, 2, 2)
    with pytest.raises(bb.NonPositiveState):
        bb.ngm_at(model, np.array([-0.1, 1.0]))


def test_ngm_at_radius_disagreement_raises_typed_error(monkeypatch):
    # The K / K~ radius agreement is a checked identity, not an assert.
    model = random_model(rng0(29), 2, 3)
    monkeypatch.setattr(ngm, "SPECTRUM_MATCH_TOL", -1.0)
    with pytest.raises(bb.IdentityViolation):
        bb.ngm_at(model, bb.dfe(model))


@pytest.mark.parametrize("case", ["casep", "caseb", "general"])
def test_rho_reads_are_the_dense_perron_root_bit_for_bit(case):
    # R0 and both ngm_at radii come from the eigenvalues alone; on these
    # nonnegative products that is exactly the number perron reports.
    # Every fourth model has a triangular A, whose (-A)^{-1} has exact zeros.
    rng = rng0({"casep": 23, "caseb": 24, "general": 25}[case])
    for trial in range(40):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        model = random_model(rng, m, n, case)
        if trial % 4 == 0:
            model = bb.BilinearModel(A=np.triu(model.A), A_S=model.A_S, B=model.B,
                                     P=model.P, Lambda=model.Lambda)
        S0 = bb.dfe(model)
        assert bb.reproduction_number(model) == bb.perron(loop_ngm(model, S0)).rho
        for S in (S0, rng.uniform(0.2, 2.0, size=m)):
            bundle = bb.ngm_at(model, S)
            assert bundle.R0 == bb.perron(bundle.K).rho
            assert bb.spectral_abscissa(bundle.K_tilde) == bb.perron(bundle.K_tilde).rho
