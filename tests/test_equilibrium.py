"""Threshold behavior, endemic solvers, determinant identity, feedback roots."""

import numpy as np
import pytest

import bbepi as bb
from bbepi import equilibrium as eq
from bbepi.ngm import loop_ngm
from conftest import (diagonal_As, feedback_C, oracle_endemic_points,
                      oracle_fd_jacobian, oracle_root_count, random_model,
                      with_r0)

rng0 = np.random.default_rng


def test_sir_closed_form(sir):
    rank = bb.classify_rank(sir)
    rep = bb.endemic_rank_one(sir, rank)
    assert rep.R0 == pytest.approx(2.0, abs=1e-12)
    (p,) = rep.endemic_points
    assert p.S_bar == pytest.approx([0.5], abs=1e-10)
    assert p.I_bar == pytest.approx([0.5], abs=1e-10)
    assert p.k == pytest.approx(0.5, abs=1e-10)
    assert p.residual <= 1e-10


def test_dfe_is_inflow_equilibrium():
    rng = rng0(30)
    model = random_model(rng, 3, 2)
    S0 = bb.dfe(model)
    assert bb.residual_inf(model, S0, np.zeros(2)) <= 1e-12


def test_jacobian_matches_finite_differences():
    rng = rng0(31)
    for _ in range(10):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        model = random_model(rng, m, n)
        x = rng.uniform(0.1, 2.0, size=m + n)
        state = bb.StateVector(*model.split(x))
        J = bb.jacobian(model, state)
        J_fd = oracle_fd_jacobian(model.rhs, x)
        assert J == pytest.approx(J_fd, abs=5e-8)


def test_rank_one_below_threshold_reports_no_point():
    rng = rng0(32)
    model = with_r0(random_model(rng, 3, 2, "casep"), 0.7)
    rank = bb.classify_rank(model)
    rep = bb.endemic_rank_one(model, rank)
    assert rep.R0 == pytest.approx(0.7, rel=1e-12)
    assert not rep.endemic_points


def test_rank_one_solver_both_cases_verified_residual():
    rng = rng0(33)
    for case in ("casep", "caseb"):
        for _ in range(15):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            model = with_r0(random_model(rng, m, n, case),
                            float(rng.uniform(1.2, 4.0)))
            rank = bb.classify_rank(model)
            rep = bb.endemic_rank_one(model, rank)
            (p,) = rep.endemic_points
            assert p.residual <= 1e-8
            assert np.all(p.S_bar > 0) and np.all(p.I_bar > 0)
            # At the endemic point the loop NGM sits exactly at threshold.
            assert bb.perron(loop_ngm(model, p.S_bar)).rho == pytest.approx(
                1.0, abs=1e-8)


def test_spectral_solver_agrees_with_rank_one_on_rank_one_models():
    rng = rng0(34)
    for case in ("casep", "caseb"):
        for _ in range(5):
            model = with_r0(random_model(rng, 3, 3, case),
                            float(rng.uniform(1.3, 3.0)))
            rank = bb.classify_rank(model)
            rep_r1 = bb.endemic_rank_one(model, rank)
            rep_sp = bb.endemic_spectral(model)
            (p1,), (p2,) = rep_r1.endemic_points, rep_sp.endemic_points
            assert p2.S_bar == pytest.approx(p1.S_bar, abs=1e-7)
            assert p2.I_bar == pytest.approx(p1.I_bar, abs=1e-7)


def test_spectral_solver_general_rank_against_multistart_oracle():
    rng = rng0(35)
    hits = 0
    for _ in range(12):
        model = with_r0(random_model(rng, 3, 3, "general"),
                        float(rng.uniform(1.2, 3.5)))
        rep = bb.endemic_spectral(model)
        (p,) = rep.endemic_points
        assert p.residual <= 1e-8
        oracle = oracle_endemic_points(model)
        assert len(oracle) == 1, "oracle found a different equilibrium count"
        x = np.concatenate([p.S_bar, p.I_bar])
        assert x == pytest.approx(oracle[0], abs=1e-6)
        hits += 1
    assert hits == 12


def test_spectral_solver_below_threshold_no_points():
    rng = rng0(36)
    model = with_r0(random_model(rng, 2, 3, "general"), 0.8)
    rep = bb.endemic_spectral(model)
    assert not rep.endemic_points
    oracle = oracle_endemic_points(model)
    assert not oracle


def test_spectral_solver_sweep_meets_threshold_and_residual():
    rng = rng0(45)
    for r0 in (1.0001, 1.01, 3.0, 100.0, 1000.0):
        for _ in range(8):
            m, n = int(rng.integers(2, 11)), int(rng.integers(2, 11))
            model = with_r0(random_model(rng, m, n, "general"), r0)
            (p,) = bb.endemic_spectral(model).endemic_points
            assert np.all(p.S_bar > 0) and np.all(p.I_bar > 0)
            rho = bb.ngm_at(model, p.S_bar).R0
            assert abs(rho - 1.0) <= eq.SPECTRAL_RADIUS_TOL
            assert p.residual <= eq.RESIDUAL_TOL


def test_spectral_solver_refuses_reducible_circulation():
    # B (-A)^{-1} P = diag(3, 0.5): R0 = 3, but the two classes never mix.
    model = bb.BilinearModel(A=np.diag([-1.0, -2.0]), A_S=-np.eye(2),
                             B=np.diag([3.0, 1.0]), P=np.eye(2),
                             Lambda=np.ones(2))
    assert bb.reproduction_number(model) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(bb.NotApplicable, match="reducible"):
        bb.endemic_spectral(model)


def test_spectral_solver_names_newton_cap(monkeypatch):
    # This model needs two Newton iterations from its Perron-ray seed.
    model = with_r0(random_model(rng0(40), 10, 10, "general"), 1000.0)
    assert bb.endemic_spectral(model).endemic_points
    monkeypatch.setattr(eq, "NEWTON_MAXITER", 1)
    with pytest.raises(bb.NoConvergence,
                       match=r"in 1 iterations \(\|\|F\|\|_inf = \d\.\d{3}e-\d+\)"):
        bb.endemic_spectral(model)


def test_threshold_band_reports_marginal():
    rng = rng0(37)
    model = with_r0(random_model(rng, 2, 2, "casep"), 1.0)
    rank = bb.classify_rank(model)
    rep = bb.endemic_rank_one(model, rank)
    assert rep.threshold
    assert not rep.endemic_points


def test_endemic_solvers_refuse_feedback_models():
    rng = rng0(38)
    base = random_model(rng, 2, 2, "casep")
    model = bb.BilinearModel(A=base.A, A_S=base.A_S, B=base.B, P=base.P,
                             Lambda=base.Lambda,
                             C=rng.uniform(0.0, 0.3, size=(2, 2)))
    rank = bb.classify_rank(model)
    with pytest.raises(bb.NotApplicable):
        bb.endemic_rank_one(model, rank)
    with pytest.raises(bb.NotApplicable):
        bb.endemic_spectral(model)


def test_determinant_law_sir(sir):
    rank = bb.classify_rank(sir)
    rep = bb.endemic_rank_one(sir, rank)
    law = bb.determinant_law(sir, rank, rep)
    assert law.det_J_dfe == pytest.approx(-1.0, abs=1e-10)
    assert law.det_J_ee == pytest.approx(1.0, abs=1e-10)
    assert law.holds


def test_determinant_law_random_m1():
    rng = rng0(39)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        model = with_r0(random_model(rng, 1, n), float(rng.uniform(1.1, 5.0)))
        rank = bb.classify_rank(model)
        law = bb.determinant_law(model, rank)
        assert law.holds
        # Signed closed form: -mu_S det(A) (1 - R0) at the DFE.
        mu_S = -model.A_S[0, 0]
        R0 = bb.reproduction_number(model)
        detA = np.linalg.det(model.A)
        expected_dfe = -mu_S * detA * (1.0 - R0)
        assert law.det_J_dfe == pytest.approx(expected_dfe, rel=1e-8)
        assert law.det_J_ee + law.det_J_dfe == pytest.approx(
            0.0, abs=1e-8 * max(1.0, abs(law.det_J_dfe)))


def test_determinant_law_requires_m1():
    rng = rng0(40)
    model = with_r0(random_model(rng, 2, 2, "casep"), 2.0)
    rank = bb.classify_rank(model)
    with pytest.raises(bb.NotApplicable):
        bb.determinant_law(model, rank)


def test_determinant_law_below_threshold():
    rng = rng0(41)
    model = with_r0(random_model(rng, 1, 2), 0.6)
    rank = bb.classify_rank(model)
    with pytest.raises(bb.BelowThreshold):
        bb.determinant_law(model, rank)


def backward_model(c2: float = 0.85) -> bb.BilinearModel:
    """m=2 shared-routing model tuned for a subthreshold root pair.

    With R0 = 0.9 the amplitude law dips below one near zero, climbs past
    one on the strength of the recovery feedback c2, and decays back below
    one, giving two endemic roots below threshold.
    """
    return bb.BilinearModel(A=[[-1.0]], A_S=np.diag([-1.0, -1.0]),
                            B=[[0.05], [5.0]], P=[[1.0, 1.0]],
                            Lambda=[16.0, 0.02], C=[[0.0], [c2]])


def test_feedback_backward_bifurcation_detected():
    model = backward_model()
    rank = bb.classify_rank(model)
    law, rep = bb.feedback_analysis(model, rank)
    assert law.R0 == pytest.approx(0.9, rel=1e-12)
    assert len(law.roots) == 2
    assert law.backward_bifurcation
    assert not law.uniqueness_condition
    for p in rep.endemic_points:
        assert p.residual <= 1e-8
        assert np.all(p.S_bar > 0) and np.all(p.I_bar > 0)


def test_feedback_roots_match_dense_grid_oracle():
    model = backward_model()
    rank = bb.classify_rank(model)
    law, _ = bb.feedback_analysis(model, rank)
    ks = np.linspace(1e-8, law.k_max, 200001)
    vals = np.array([law.H(k) for k in ks]) - 1.0
    assert len(law.roots) == oracle_root_count(vals)


def test_feedback_uniqueness_condition_models_have_single_root():
    rng = rng0(42)
    for _ in range(10):
        m, n = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        base = with_r0(random_model(rng, m, n, "casep"),
                       float(rng.uniform(1.2, 3.0)))
        model = diagonal_As(base, rng)
        model = with_r0(model, float(rng.uniform(1.2, 3.0)))
        rank = bb.classify_rank(model)
        # Scale C until the sufficient uniqueness condition holds while
        # keeping the recycled mass below the infection exit rates.
        R = bb.replacement_vector(model, rank)
        D_w = bb.dwell_times(model, rank)
        mu = -np.diag(model.A_S)
        C = feedback_C(model, rng)
        cap = 0.9 * float(np.min(mu) / np.max(R)) / float(np.max(C @ D_w))
        model = bb.BilinearModel(A=model.A, A_S=model.A_S, B=model.B,
                                 P=model.P, Lambda=model.Lambda,
                                 C=C * min(cap, 1.0))
        rank = bb.classify_rank(model)
        law, rep = bb.feedback_analysis(model, rank)
        assert law.uniqueness_condition
        assert len(law.roots) == 1
        assert not law.backward_bifurcation
        (p,) = rep.endemic_points
        assert p.residual <= 1e-8


def test_feedback_reduces_to_rank_one_when_c_zero():
    rng = rng0(43)
    model = with_r0(random_model(rng, 3, 2, "casep"), 2.5)
    rank = bb.classify_rank(model)
    law, rep = bb.feedback_analysis(model, rank)
    rep_r1 = bb.endemic_rank_one(model, rank)
    assert len(law.roots) == 1
    (p,), (q,) = rep.endemic_points, rep_r1.endemic_points
    assert p.S_bar == pytest.approx(q.S_bar, abs=1e-9)
    assert p.I_bar == pytest.approx(q.I_bar, abs=1e-9)


def test_feedback_requires_shared_routing():
    rng = rng0(44)
    model = random_model(rng, 3, 3, "general")
    rank = bb.classify_rank(model)
    with pytest.raises(bb.NotCaseP):
        bb.feedback_analysis(model, rank)


def test_feedback_endemic_points_satisfy_field():
    model = backward_model(0.9)
    rank = bb.classify_rank(model)
    _, rep = bb.feedback_analysis(model, rank)
    for p in rep.endemic_points:
        x = np.concatenate([p.S_bar, p.I_bar])
        assert np.max(np.abs(model.rhs(x))) <= 1e-8 * (1.0 + np.max(np.abs(x)))
