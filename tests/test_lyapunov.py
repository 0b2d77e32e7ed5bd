"""Certificate values, decrease audits, and the linear transversal bound."""

import numpy as np
import pytest

import bbepi as bb
from bbepi import spectral
from conftest import diagonal_As, random_model, with_r0

rng0 = np.random.default_rng


def subthreshold_casep(rng, m, n, r0=0.6):
    model = diagonal_As(random_model(rng, m, n, "casep"), rng)
    return with_r0(model, r0)


def superthreshold_m1(rng, n, r0=2.0):
    return with_r0(random_model(rng, 1, n), r0)


# ---------------------------------------------------------------------------
# disease-free certificate


def test_v_dfe_anchor_value():
    # Scalar model with beta = 1/2: R0 = 1/2, S0 = 1. At (S, I) = (0.8, 0.1)
    # the derivative assembles to
    #   -R0 mu (S - S0)^2 / S + (R0 - 1)(S0 B) I
    #   = -0.5 * 0.04/0.8 - 0.5 * 0.05 = -0.05.
    model = bb.BilinearModel(A=[[-1.0]], A_S=[[-1.0]], B=[[0.5]], P=[[1.0]],
                             Lambda=[1.0])
    rank = bb.classify_rank(model)
    V, V_dot = bb.v_dfe(model, rank, bb.StateVector([0.8], [0.1]))
    assert V_dot == pytest.approx(-0.05, abs=1e-12)
    assert V > 0.0


def test_v_dfe_stationary_and_minimal_at_dfe():
    rng = rng0(50)
    model = subthreshold_casep(rng, 3, 2)
    rank = bb.classify_rank(model)
    S0 = bb.dfe(model)
    V0, V_dot = bb.v_dfe(model, rank, bb.StateVector(S0, np.zeros(2)))
    assert V_dot == pytest.approx(0.0, abs=1e-12)
    # The susceptible wells bottom out exactly at the disease-free profile.
    for bump in (0.8, 1.3):
        V, _ = bb.v_dfe(model, rank, bb.StateVector(bump * S0, np.zeros(2)))
        assert V > V0


def test_v_dfe_assembled_matches_chain_rule():
    # v_dfe internally asserts the assembled/chain-rule agreement; sweep it
    # over random states and models to exercise that assertion.
    rng = rng0(51)
    for _ in range(10):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        model = subthreshold_casep(rng, m, n, float(rng.uniform(0.3, 0.9)))
        rank = bb.classify_rank(model)
        for _ in range(10):
            state = bb.StateVector(rng.uniform(0.05, 3.0, size=m),
                                   rng.uniform(0.0, 2.0, size=n))
            V, V_dot = bb.v_dfe(model, rank, state)
            assert np.isfinite(V) and np.isfinite(V_dot)
            assert V >= 0.0
            assert V_dot <= 1e-12


def test_v_dfe_requires_shared_routing():
    rng = rng0(52)
    model = diagonal_As(random_model(rng, 2, 2, "caseb"), rng)
    rank = bb.classify_rank(model)
    with pytest.raises(bb.NotCaseP):
        bb.v_dfe(model, rank, bb.StateVector([1.0, 1.0], [0.1, 0.1]))


def test_v_dfe_requires_diagonal_As():
    rng = rng0(53)
    model = random_model(rng, 2, 2, "casep")  # coupled A_S
    rank = bb.classify_rank(model)
    with pytest.raises(bb.NonDiagonalAS):
        bb.v_dfe(model, rank, bb.StateVector([1.0, 1.0], [0.1, 0.1]))


# ---------------------------------------------------------------------------
# endemic certificate


def test_ee_weights_identities(sir):
    a = bb.ee_weights(sir, 0.5)
    assert a == pytest.approx([1.0], abs=1e-12)
    rng = rng0(54)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        model = superthreshold_m1(rng, n, float(rng.uniform(1.3, 3.0)))
        rank = bb.classify_rank(model)
        rep = bb.endemic_rank_one(model, rank)
        S_bar = rep.endemic_points[0].S_bar
        a = bb.ee_weights(model, S_bar)
        # a A = -S_bar beta, exactly the relation the construction enforces.
        assert a @ model.A == pytest.approx(-float(S_bar[0]) * model.B[0],
                                            abs=1e-10)
        assert float(a @ model.P[:, 0]) == pytest.approx(1.0, abs=1e-9)


def test_v_ee_anchor_value(sir):
    rank = bb.classify_rank(sir)
    rep = bb.endemic_rank_one(sir, rank)
    V, V_dot = bb.v_ee(sir, rep, bb.StateVector([1.0], [1.0]))
    g2 = 2.0 - 1.0 - np.log(2.0)
    assert V == pytest.approx(g2, abs=1e-12)
    assert V_dot < 0.0


def test_v_ee_zero_at_endemic_point(sir):
    rank = bb.classify_rank(sir)
    rep = bb.endemic_rank_one(sir, rank)
    p = rep.endemic_points[0]
    V, V_dot = bb.v_ee(sir, rep, bb.StateVector(p.S_bar, p.I_bar))
    assert V == pytest.approx(0.0, abs=1e-12)
    assert V_dot == pytest.approx(0.0, abs=1e-10)


def test_v_ee_nonpositive_on_random_states():
    rng = rng0(55)
    for _ in range(8):
        n = int(rng.integers(1, 5))
        model = superthreshold_m1(rng, n, float(rng.uniform(1.5, 3.0)))
        rank = bb.classify_rank(model)
        rep = bb.endemic_rank_one(model, rank)
        for _ in range(10):
            state = bb.StateVector(rng.uniform(0.05, 3.0, size=1),
                                   rng.uniform(1e-3, 3.0, size=n))
            V, V_dot = bb.v_ee(model, rep, state)
            assert V >= 0.0
            assert V_dot <= 1e-10


def test_v_ee_requires_single_susceptible_class():
    rng = rng0(56)
    model = with_r0(random_model(rng, 2, 2, "casep"), 2.0)
    rank = bb.classify_rank(model)
    rep = bb.endemic_rank_one(model, rank)
    with pytest.raises(bb.NotRankOne):
        bb.v_ee(model, rep, bb.StateVector([1.0, 1.0], [0.1, 0.1]))


def test_v_ee_requires_endemic_point():
    rng = rng0(57)
    model = with_r0(random_model(rng, 1, 2), 0.7)
    rank = bb.classify_rank(model)
    rep = bb.endemic_rank_one(model, rank)
    with pytest.raises(bb.BelowThreshold):
        bb.v_ee(model, rep, bb.StateVector([1.0], [0.1, 0.1]))


# ---------------------------------------------------------------------------
# transversal certificate


def test_v_transversal_scalar_anchor():
    Q, Q_dot = bb.v_transversal(F=[[2.0]], V_mat=[[1.0]], pi=[1.0],
                                I=[1.0], f=[0.0])
    assert Q == pytest.approx(1.0)
    assert Q_dot == pytest.approx(1.0)  # (R0 - 1) (pi V) I = (2-1)*1*1


def test_v_transversal_matches_numeric_derivative():
    # Q_dot must equal d/dt (pi . I) along I' = (F - V) I - f.
    rng = rng0(58)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        F = rng.uniform(0.0, 1.0, size=(n, n))
        V = np.diag(rng.uniform(0.5, 2.0, size=n))
        I = rng.uniform(0.1, 2.0, size=n)
        f = rng.uniform(0.0, 0.2, size=n)
        data = bb.perron(F @ np.linalg.inv(V))
        pi = data.pi_left
        if np.any(pi <= 0):
            continue  # reducible draw; the certificate needs positive pi
        Q, Q_dot = bb.v_transversal(F, V, pi, I, f)
        assert Q == pytest.approx(float(pi @ I), abs=1e-12)
        direct = float(pi @ ((F - V) @ I - f))
        assert Q_dot == pytest.approx(direct, abs=1e-9)


def test_v_transversal_decays_below_threshold():
    rng = rng0(59)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        F = rng.uniform(0.0, 0.3, size=(n, n))
        V = np.diag(rng.uniform(1.0, 2.0, size=n))
        data = bb.perron(F @ np.linalg.inv(V))
        if data.rho >= 1.0 or np.any(data.pi_left <= 0):
            continue
        _, Q_dot = bb.v_transversal(F, V, data.pi_left,
                                    rng.uniform(0.0, 1.0, size=n),
                                    rng.uniform(0.0, 0.5, size=n))
        assert Q_dot <= 1e-12


def test_v_transversal_rejects_irregular_splitting():
    with pytest.raises(bb.NotRegularSplitting):
        bb.v_transversal(F=[[-0.1]], V_mat=[[1.0]], pi=[1.0], I=[1.0], f=[0.0])
    with pytest.raises(bb.NotRegularSplitting):
        bb.v_transversal(F=[[1.0, 0.0], [0.0, 1.0]],
                         V_mat=[[1.0, 2.0], [2.0, 1.0]],  # inverse has < 0
                         pi=[1.0, 1.0], I=[1.0, 1.0], f=[0.0, 0.0])


# ---------------------------------------------------------------------------
# sampled decrease audits


def test_verify_decrease_dfe_random_models():
    rng = rng0(60)
    cfg = bb.SamplingConfig(n_trajectories=6, horizon=120.0)
    for _ in range(3):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        model = subthreshold_casep(rng, m, n, float(rng.uniform(0.4, 0.9)))
        cert = bb.verify_decrease(model, "dfe", cfg)
        assert cert.verdict
        assert cert.worst_violation <= 1e-7
        assert cert.chain_rule_gap <= 1e-8
        assert cert.convergence_fraction == 1.0


def test_verify_decrease_ee_random_models():
    rng = rng0(61)
    cfg = bb.SamplingConfig(n_trajectories=6, horizon=200.0)
    for _ in range(3):
        n = int(rng.integers(1, 4))
        model = superthreshold_m1(rng, n, float(rng.uniform(1.5, 3.0)))
        cert = bb.verify_decrease(model, "ee", cfg)
        assert cert.verdict
        assert cert.worst_violation <= 1e-7
        assert cert.chain_rule_gap <= 1e-8
        assert cert.convergence_fraction == 1.0


def test_verify_decrease_trace_csv_shape(sir):
    cfg = bb.SamplingConfig(n_trajectories=3, horizon=30.0)
    cert = bb.verify_decrease(sir, "ee", cfg)
    lines = cert.trace_csv(0).strip().splitlines()
    assert lines[0] == "t,V,V_dot"
    assert len(lines) == cert.times.size + 1
    all_lines = cert.all_traces_csv().strip().splitlines()
    assert all_lines[0] == "trajectory,t,V,V_dot"
    assert len(all_lines) == 3 * cert.times.size + 1


def test_verify_decrease_csv_cells_are_exact_floats(sir):
    # Every cell parses as a plain float equal to the certificate's value
    # (numpy 2 scalars would repr as "np.float64(...)").
    cfg = bb.SamplingConfig(n_trajectories=3, horizon=2.0)
    cert = bb.verify_decrease(sir, "ee", cfg)

    def columns(index):
        return np.column_stack([cert.times, cert.V[:, index], cert.V_dot[:, index]])

    for index in (0, 1):
        rows = [[float(c) for c in line.split(",")]
                for line in cert.trace_csv(index).splitlines()[1:]]
        assert np.array_equal(np.array(rows), columns(index))
    rows = [[float(c) for c in line.split(",")]
            for line in cert.all_traces_csv().splitlines()[1:]]
    expected = np.vstack([np.column_stack([np.full(cert.times.size, i), columns(i)])
                          for i in range(3)])
    assert np.array_equal(np.array(rows), expected)


def test_failed_identity_raises_typed_error(sir, monkeypatch):
    # A wrong resolvent breaks the weight identity a A = -S_bar beta; the
    # check must raise, not assert (asserts vanish under python -O). The
    # fixture builds a fresh model, so its cached (-A)^{-1} is first computed
    # here, through the patch.
    assert "Ainv" not in vars(sir)
    real = spectral.m_inverse
    monkeypatch.setattr(spectral, "m_inverse", lambda A: 2.0 * real(A))
    with pytest.raises(bb.IdentityViolation):
        bb.ee_weights(sir, 0.5)


def test_nan_identity_raises_typed_error(sir):
    # A NaN residual fails every identity check instead of passing it.
    with pytest.raises(bb.IdentityViolation):
        bb.ee_weights(sir, np.nan)


def test_verify_decrease_hypothesis_errors():
    rng = rng0(62)
    coupled = random_model(rng, 2, 2, "casep")
    with pytest.raises(bb.NonDiagonalAS):
        bb.verify_decrease(coupled, "dfe",
                           bb.SamplingConfig(n_trajectories=2, horizon=5.0))
    below = with_r0(random_model(rng, 1, 2), 0.5)
    with pytest.raises(bb.BelowThreshold):
        bb.verify_decrease(below, "ee",
                           bb.SamplingConfig(n_trajectories=2, horizon=5.0))
    with pytest.raises(ValueError):
        bb.verify_decrease(below, "nonsense",
                           bb.SamplingConfig(n_trajectories=2, horizon=5.0))
