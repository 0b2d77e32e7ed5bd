"""Threshold behavior, endemic solvers, determinant identity, feedback roots."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import bbepi as bb
from bbepi import cli
from bbepi import equilibrium as eq
from bbepi import spectral
from bbepi.ngm import loop_ngm
from conftest import (diagonal_As, feedback_C, oracle_endemic_points,
                      oracle_fd_jacobian, oracle_feedback_roots,
                      oracle_root_count, random_model, with_r0)
from test_cli import SIRS_RXN

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


def test_spectral_solver_names_a_seed_law_without_one_root(monkeypatch):
    model = with_r0(random_model(rng0(40), 3, 3, "general"), 3.0)
    assert bb.endemic_spectral(model).endemic_points
    monkeypatch.setattr(eq, "_amplitude_roots", lambda *args: ([0.5, 2.0], False, 16.0))
    with pytest.raises(bb.NoConvergence,
                       match=r"has roots \[0\.5, 2\.0\], expected exactly one"):
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


def backward_tangency() -> float:
    """c2 at which the backward family's law touches one (a double root).

    From the closed form H(k) = sum_i b_i (lambda_i + k c_i) / (k b_i + mu_i):
    bisect c2 on min_k H(k) = 1, the minimum taken where dH/dk = 0.
    """
    b, lam = np.array([0.05, 5.0]), np.array([16.0, 0.02])

    def H(k, c2):
        return float(np.sum(b * (lam + k * np.array([0.0, c2])) / (k * b + 1.0)))

    def H_k(k, c2):
        c = np.array([0.0, c2])
        return float(np.sum(b * (c * (k * b + 1.0) - b * (lam + k * c))
                            / (k * b + 1.0) ** 2))

    def gap(c2):
        return H(brentq(lambda k: H_k(k, c2), 1e-3, 1e3, xtol=1e-15), c2) - 1.0

    return brentq(gap, 0.2, 0.3, xtol=1e-16, rtol=1e-15)


def test_feedback_double_root_at_tangency():
    c2_star = backward_tangency()
    assert c2_star == pytest.approx(0.26328499, abs=1e-8)
    counts = {}
    for factor in (0.999999, 1.0, 1.000001):
        model = backward_model(c2_star * factor)
        law, rep = bb.feedback_analysis(model, bb.classify_rank(model))
        counts[factor] = len(law.roots)
        if factor == 1.0:
            (k,) = law.roots
            assert law.saddle_flags == [True]
            assert abs(k * law.H_prime(k)) <= eq.DOUBLE_ROOT_DERIV_TOL
            assert law.H(k) == pytest.approx(1.0, abs=1e-12)
            (p,) = rep.endemic_points
            assert p.saddle_node
        for k in law.roots:
            assert law.H(k) == pytest.approx(1.0, abs=1e-9)
    assert counts == {0.999999: 0, 1.0: 1, 1.000001: 2}


SIS_NO_DEATH = dict(A=[[-1.0]], A_S=[[-0.1]], B=[[3.0]], P=[[1.0]],
                    Lambda=[0.1], C=[[1.0]])


def test_feedback_no_removal_law_has_no_root():
    # Every infected returns to S, so H_C(k) = 3 (0.1 + k) / (3 k + 0.1) > 1
    # for all k and tends to 1: no endemic amplitude, and k = infinity is a
    # root of the eigenvalue form.
    model = bb.BilinearModel(**SIS_NO_DEATH)
    law, rep = bb.feedback_analysis(model, bb.classify_rank(model))
    assert law.roots == [] and not rep.endemic_points
    assert law.exhausted
    assert any("k -> infinity" in note for note in rep.notes)


@pytest.mark.parametrize("C, root", [([[0.1], [0.9]], 5.0 / 173.0),
                                     ([[0.5], [0.5]], 5.0 / 74.0)])
def test_feedback_no_removal_finite_root(C, root):
    # 1^T C D_w = 1 with two classes: one finite root besides k = infinity.
    model = bb.BilinearModel(A=[[-1.0]], A_S=-np.eye(2), B=[[0.05], [5.0]],
                             P=[[1.0, 1.0]], Lambda=[16.0, 0.02], C=C)
    law, rep = bb.feedback_analysis(model, bb.classify_rank(model))
    assert law.roots == [pytest.approx(root, rel=1e-12)]
    (p,) = rep.endemic_points
    assert p.residual <= 1e-12
    assert any("k -> infinity" in note for note in rep.notes)


def test_feedback_law_degenerate_at_both_ends_raises():
    # R0 = 1 and no removal: H_C(k) = (0.1 + k) / (k + 0.1) is identically 1.
    model = bb.BilinearModel(**{**SIS_NO_DEATH, "B": [[1.0]]})
    with pytest.raises(bb.NoConvergence, match="degenerate"):
        bb.feedback_analysis(model, bb.classify_rank(model))


def test_feedback_law_without_infectivity_has_no_root():
    # B acts only on compartment 2, which no infection reaches: R = 0, so
    # every class is eliminated and H_C is identically 0.
    model = bb.BilinearModel(A=-np.eye(2), A_S=[[-1.0]], B=[[0.0, 2.0]],
                             P=[[1.0], [0.0]], Lambda=[1.0], C=[[0.5, 0.0]])
    rank = bb.classify_rank(model)
    assert not np.any(bb.replacement_vector(model, rank))
    law, rep = bb.feedback_analysis(model, rank)
    assert law.roots == [] and not rep.endemic_points


def test_feedback_skips_root_whose_point_misses_the_field(monkeypatch):
    model = backward_model(0.9)
    rank = bb.classify_rank(model)
    law, _ = bb.feedback_analysis(model, rank)
    fake = law.roots[0] * 1.1
    monkeypatch.setattr(eq, "_amplitude_roots", lambda *args: ([fake], False, 16.0))
    law, rep = bb.feedback_analysis(model, rank)
    assert law.roots == [fake]
    assert not rep.endemic_points
    assert any("residual" in note and "skipped" in note for note in rep.notes)


# One-class SIS with recovery feedback: with Lambda = R0 the law is
# H_C(k) = (R0 + k/2) / (1 + k), whose one root is k = 2 (R0 - 1).
SIS_FEEDBACK = {"A": [[-1.0]], "A_S": [[-1.0]], "B": [[1.0]], "P": [[1.0]],
                "C": [[0.5]]}


@pytest.mark.parametrize("eps", [2e-9, 4e-9, 1e-8, 1e-6])
def test_feedback_reports_a_root_just_outside_the_threshold_band(tmp_path, eps):
    model = bb.BilinearModel(Lambda=[1.0 + eps], **SIS_FEEDBACK)
    law, rep = bb.feedback_analysis(model, bb.classify_rank(model))
    assert law.R0 == 1.0 + eps and not rep.threshold
    (p,) = rep.endemic_points
    assert p.k == pytest.approx(2.0 * eps, rel=1e-6)

    path, out = tmp_path / "sis.model", tmp_path / "out"
    path.write_text(json.dumps(model.to_dict()))
    grid = f"{1.0 + eps!r}:{1.0 + eps!r}:1"
    assert cli.main(["scan", str(path), "--entry", "Lambda[0]", "--grid", grid,
                     "--out", str(out)]) == 0
    header, row = (out / "scan.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["num_roots"] == "1"
    assert cli.main(["analyze", str(path), "--out", str(out)]) == 0
    doc = json.loads((out / "analysis.json").read_text())
    assert len(doc["equilibrium"]["endemic_points"]) == 1


BAND_NOTE = "R0 within the threshold band of 1; roots on the branch through k = 0 not reported"


def _feedback_at_threshold(seed: int) -> bb.BilinearModel:
    rng = rng0(seed)
    base = random_model(rng, 2, 2, "casep")
    return with_r0(bb.BilinearModel(A=base.A, A_S=base.A_S, B=base.B, P=base.P,
                                    Lambda=base.Lambda, C=feedback_C(base, rng)), 1.0)


@pytest.mark.parametrize("seed", [4, 5, 6, 7, 9])
def test_feedback_in_the_band_drops_the_branch_through_zero(seed):
    # Each of these laws has a roundoff root of 1e-16 to 5e-15 on the branch
    # through k = 0, and no other positive root.
    model = _feedback_at_threshold(seed)
    law, rep = bb.feedback_analysis(model, bb.classify_rank(model))
    assert abs(law.R0 - 1.0) <= eq.THRESHOLD_BAND
    assert rep.threshold and BAND_NOTE in rep.notes
    assert law.roots == [] and rep.endemic_points == []


@pytest.mark.parametrize("model", [
    pytest.param(lambda: with_r0(backward_model(), 1.0), id="backward_model"),
    pytest.param(lambda: _feedback_at_threshold(3), id="random-seed-3"),
])
def test_feedback_in_the_band_keeps_a_backward_root(model):
    # Seed 3 also has a roundoff root of 4e-14 on the branch through k = 0.
    model = model()
    law, rep = bb.feedback_analysis(model, bb.classify_rank(model))
    oracle = oracle_feedback_roots(model, 1e6 * law.k_max)
    assert rep.threshold and BAND_NOTE in rep.notes
    assert len(oracle) == 1 and oracle[0] > 0.1
    assert law.roots == pytest.approx(oracle, rel=1e-9)
    assert [p.k for p in rep.endemic_points] == law.roots


def _hex_points(report) -> list:
    return [[x.hex() for x in [*p.S_bar.tolist(), *p.I_bar.tolist(), p.k, p.residual]]
            for p in report.endemic_points]


def test_feedback_points_without_feedback_equal_rank_one_points_bitwise():
    rng = rng0(131)
    for _ in range(30):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        model = with_r0(random_model(rng, m, n, "casep"), float(rng.uniform(1.05, 4.0)))
        rank = bb.classify_rank(model)
        _, rep = bb.feedback_analysis(model, rank)
        expected = _hex_points(bb.endemic_rank_one(model, rank))
        assert len(expected) == 1 and _hex_points(rep) == expected


def test_a_nan_residual_fails_every_endemic_gate(monkeypatch):
    casep = with_r0(random_model(rng0(132), 2, 2, "casep"), 2.0)
    general = with_r0(random_model(rng0(133), 3, 3, "general"), 2.0)
    fb = backward_model(0.9)
    monkeypatch.setattr(eq, "residual_inf", lambda *args: float("nan"))
    with pytest.raises(bb.NoConvergence, match="residual nan too large"):
        bb.endemic_rank_one(casep, bb.classify_rank(casep))
    with pytest.raises(bb.NoConvergence, match="residual nan exceeds"):
        bb.endemic_spectral(general)
    law, rep = bb.feedback_analysis(fb, bb.classify_rank(fb))
    assert len(law.roots) == 2 and not rep.endemic_points
    assert sum(note.endswith("residual nan; skipped") for note in rep.notes) == 2


@pytest.mark.parametrize("beta", [2.5, 3.0, 4.85, 8.0])
def test_feedback_sirs_network_matches_dense_scan(beta):
    # The reaction fixture has R = (beta / 2.5, 0): class r is never
    # infected and is eliminated before the eigenvalue solve.
    text = SIRS_RXN.replace("s + i -> 2 i : 2.5", f"s + i -> 2 i : {beta!r}")
    model, _ = bb.network_to_bilinear(bb.parse_reactions(text))
    rank = bb.classify_rank(model)
    assert bb.replacement_vector(model, rank)[1] == 0.0
    law, rep = bb.feedback_analysis(model, rank)
    assert all(r <= law.k_max for r in law.roots)
    # The scan reaches six decades beyond k_max, so it does not lean on the
    # bound it checks.
    oracle = oracle_feedback_roots(model, 1e6 * law.k_max)
    assert law.roots == pytest.approx(oracle, rel=1e-9)
    assert len(rep.endemic_points) == len(oracle)


def test_rank_one_zero_infectivity_class_matches_scalar_law():
    rng = rng0(46)
    for _ in range(10):
        base = random_model(rng, 3, 2, "caseb")
        alpha_m = np.array([0.6, 0.0, 0.4])
        model = with_r0(bb.BilinearModel(
            A=base.A, A_S=base.A_S, B=np.outer(alpha_m, base.B[0]),
            P=base.P, Lambda=base.Lambda), float(rng.uniform(1.2, 3.0)))
        rank = bb.classify_rank(model)
        R = bb.replacement_vector(model, rank)
        assert R[1] == 0.0
        (p,) = bb.endemic_rank_one(model, rank).endemic_points

        def H(k):
            return float(R @ np.linalg.solve(k * np.diag(rank.alpha_m) - model.A_S,
                                             model.Lambda))

        assert p.k == pytest.approx(brentq(lambda k: H(k) - 1.0, 1e-12, 1e6,
                                           xtol=1e-15, rtol=1e-14), rel=1e-10)
        assert p.residual <= 1e-10


@pytest.mark.parametrize("b", [0.0, 1e-3, 1e-6, 1e-8, 1e-12, 1e-16, 1e-20, 1e-100])
def test_rank_one_tiny_infectivity_entry(b):
    # a = R is proportional to (1.839, b): Diag(a) is nearly singular for
    # tiny b, so the eigenvalue solve must invert the other side.
    model = bb.BilinearModel(A=[[-2.212]], A_S=[[-1.520, 0.342], [0.023, -2.817]],
                             B=[[1.839], [b]], P=[[1.0, 1.0]], Lambda=[1.839, 1.0])
    rank = bb.classify_rank(model)
    (p,) = bb.endemic_rank_one(model, rank).endemic_points
    R = bb.replacement_vector(model, rank)
    assert abs(float(p.S_bar @ R) - 1.0) <= eq.NORMALIZATION_TOL
    assert p.residual <= eq.RESIDUAL_TOL
    if b <= 1e-12:
        assert p.k == pytest.approx(0.1354664571487, rel=1e-11)


@settings(max_examples=60, deadline=None)
# Roots 7.69 and 22.26 with H_C(1) < 1: a range read off H_C alone, by doubling
# k from 1 until H_C < 1, would end at once; k_max must lie above both.
@example(seed=0, m=2, n=1, r0=0.5, strength=0.9375, contrast=1.0,
         silent_class=False)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), n=st.integers(1, 3),
       r0=st.floats(0.5, 2.0), strength=st.floats(0.0, 0.95),
       contrast=st.floats(0.0, 3.0), silent_class=st.booleans())
def test_feedback_roots_match_dense_sign_scan(seed, m, n, r0, strength,
                                              contrast, silent_class):
    # Shaped like backward_model: class 1 is a reservoir (large inflow, weak
    # transmission, almost no recycled mass), the others a core with strong
    # transmission, little inflow and most of the recycling, which gives two
    # roots below threshold in a part of the draws.
    rng = rng0(seed)
    base = diagonal_As(random_model(rng, m, n, "casep"), rng)
    scale = np.full(m, 10.0 ** (contrast / 2.0))
    scale[0] = 1.0 / scale[0]
    inflow_cut = np.concatenate([[1.0], 10.0 ** rng.uniform(0.0, 2.0, size=m - 1)])
    B = base.B * scale[:, None]
    if silent_class and m > 1:
        B[1] = 0.0  # class 2 is never infected: R_2 = 0
    base = with_r0(bb.BilinearModel(A=base.A, A_S=base.A_S, B=B, P=base.P,
                                    Lambda=base.Lambda / scale / inflow_cut), r0)
    C = rng.uniform(0.1, 1.0, size=(m, n))
    C[0] *= 1e-3
    C *= strength * -base.A.sum(axis=0) / C.sum(axis=0)  # 1^T C D_w = strength
    model = bb.BilinearModel(A=base.A, A_S=base.A_S, B=base.B, P=base.P,
                             Lambda=base.Lambda, C=C)
    law, rep = bb.feedback_analysis(model, bb.classify_rank(model))
    # The sign scan cannot resolve roots closer than its grid spacing, so
    # near-tangent laws are left to the tangency test above.
    assert all(r <= law.k_max for r in law.roots)
    assume(all(abs(k * d) > 1e-3 for k, d in zip(law.roots, law.deriv_at_roots)))
    # The scan reaches six decades beyond k_max, so it does not lean on the
    # bound it checks.
    oracle = oracle_feedback_roots(model, 1e6 * law.k_max)
    assert law.roots == pytest.approx(oracle, rel=1e-9)
    assert len(rep.endemic_points) == len(oracle)


def _solver_models():
    rng = rng0(95)
    above = with_r0(random_model(rng, 2, 3, "casep"), 1.8)
    below = with_r0(random_model(rng, 2, 3, "caseb"), 0.6)
    general = with_r0(random_model(rng, 3, 3, "general"), 2.2)
    fb = random_model(rng, 2, 3, "casep")
    fb = bb.BilinearModel(A=fb.A, A_S=fb.A_S, B=fb.B, P=fb.P, Lambda=fb.Lambda,
                          C=feedback_C(fb, rng))
    dfe_model = with_r0(diagonal_As(random_model(rng, 2, 2, "casep"), rng), 0.6)
    scalar = with_r0(random_model(rng, 1, 3, "caseb"), 2.5)
    return above, below, general, fb, dfe_model, scalar


def _solver_cases():
    # Each case builds its models inside the test, so that their resolvents
    # are first computed there, under the counting patch.
    cfg = bb.SamplingConfig(n_trajectories=2, horizon=1.0)

    def model(i):
        return lambda: _solver_models()[i]

    def rank_one(m):
        return eq.endemic_rank_one(m, bb.classify_rank(m))

    def analyze_op(m):
        # The library calls of `bbepi analyze` on a feedback-free model.
        bb.validate_model(m)
        rank = bb.classify_rank(m)
        bb.reproduction_number(m)
        if rank.tag is bb.RankTag.GENERAL:
            return bb.endemic_spectral(m)
        bb.eig_table(m, rank)
        report = eq.endemic_rank_one(m, rank)
        if m.m == 1 and report.R0 > 1.0:
            assert bb.determinant_law(m, rank, report).holds

    return [
        pytest.param(model(0), rank_one, id="rank_one-above"),
        pytest.param(model(1), rank_one, id="rank_one-below"),
        pytest.param(model(2), eq.endemic_spectral, id="spectral"),
        pytest.param(model(3), lambda m: eq.feedback_analysis(m, bb.classify_rank(m)),
                     id="feedback"),
        pytest.param(model(4), lambda m: bb.verify_decrease(m, "dfe", cfg),
                     id="certificate-dfe"),
        pytest.param(model(5), analyze_op, id="analyze-rank_one"),
        pytest.param(model(1), analyze_op, id="analyze-below"),
        pytest.param(model(2), analyze_op, id="analyze-general"),
    ]


def _count_inversions(monkeypatch) -> list:
    """Patch spectral.m_inverse to record every matrix it inverts."""
    real, seen = spectral.m_inverse, []

    def counting(A):
        seen.append(A)
        return real(A)

    monkeypatch.setattr(spectral, "m_inverse", counting)
    return seen


@pytest.mark.parametrize("build, solve", _solver_cases())
def test_each_solver_call_inverts_A_once(monkeypatch, build, solve):
    # (-A)^{-1} and S0 = (-A_S)^{-1} Lambda are computed once per model and
    # kept on it; timings alone would not show a second inversion.
    model = build()
    seen = _count_inversions(monkeypatch)
    solve(model)
    assert len(seen) == 2
    assert sum(A is model.A for A in seen) == 1
    assert sum(A is model.A_S for A in seen) == 1
    seen.clear()
    solve(model)  # a second pass on the same model inverts nothing
    assert seen == []


def test_analyze_inverts_A_and_A_S_once(monkeypatch, tmp_path):
    model = with_r0(random_model(rng0(101), 1, 3, "casep"), 2.0)
    path = tmp_path / "m.model"
    path.write_text(json.dumps(model.to_dict()))
    seen = _count_inversions(monkeypatch)
    assert cli.main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "analysis.json").read_text())
    assert "replacement_vector" in doc and "dwell_times" in doc
    assert doc["determinant_law"]["holds"] is True
    # One inversion of A (3 x 3) and one of A_S (1 x 1) for the whole run.
    by_shape = {A.shape: A for A in seen}
    assert len(seen) == 2 and sorted(by_shape) == [(1, 1), (3, 3)]
    assert np.array_equal(by_shape[(3, 3)], model.A)
    assert np.array_equal(by_shape[(1, 1)], model.A_S)
