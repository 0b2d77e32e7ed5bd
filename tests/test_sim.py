"""Fixed and adaptive integration, positivity handling, convergence order."""

import numpy as np
import pytest
from scipy.linalg import expm

import bbepi as bb
from bbepi import sim
from bbepi.sim import sample_initial_conditions
from conftest import random_model, with_r0

rng0 = np.random.default_rng


def test_linear_decay_endpoint():
    traj = bb.integrate(lambda x: -x, np.array([1.0]), 1.0,
                        bb.IntegratorConfig(step=0.01))
    assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-8)
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)


def test_sir_trajectory_reaches_endemic_point(sir):
    traj = bb.integrate(sir.rhs, np.array([0.9, 0.1]), 200.0,
                        bb.IntegratorConfig(step=0.01))
    assert traj.states[-1] == pytest.approx([0.5, 0.5], abs=1e-4)


def test_equilibrium_is_fixed_point(sir):
    x_star = np.array([0.5, 0.5])
    traj = bb.integrate(sir.rhs, x_star, 10.0, bb.IntegratorConfig(step=0.01))
    assert np.max(np.abs(traj.states - x_star)) <= 1e-10


def test_fourth_order_convergence():
    # Halving h cuts the endpoint error by ~16 on the linear problem.
    def solve(h):
        traj = bb.integrate(lambda x: -x, np.array([1.0]), 1.0,
                            bb.IntegratorConfig(step=h))
        return abs(traj.states[-1, 0] - np.exp(-1.0))

    e1, e2 = solve(0.02), solve(0.01)
    assert 8.0 <= e1 / e2 <= 32.0


def test_conservation_on_closed_network():
    # Closed SIRS keeps total mass constant; RK4 preserves the linear law.
    text = """
    s + i -> 2 i : 2.0
    i -> r : 1.0
    r -> s : 1.0
    """
    net = bb.parse_reactions(text)
    x0 = np.array([0.7, 0.2, 0.1])
    traj = bb.integrate(net.rhs, x0, 50.0, bb.IntegratorConfig(step=0.01))
    totals = traj.states.sum(axis=1)
    assert np.max(np.abs(totals - x0.sum())) <= 1e-9


def test_positivity_clamp_and_violation():
    # Flow leaving the orthant fast enough aborts; a grazing flow is clamped.
    with pytest.raises(bb.PositivityViolation):
        bb.integrate(lambda x: np.array([-1.0]), np.array([0.05]), 1.0,
                     bb.IntegratorConfig(step=0.1))
    traj = bb.integrate(lambda x: -x, np.array([1e-14]), 1.0,
                        bb.IntegratorConfig(step=0.01))
    assert np.min(traj.states) >= 0.0


def test_adaptive_shrinks_steps_that_leave_the_orthant():
    # Every coordinate of this decaying chain falls towards zero; an
    # accepted Cash-Karp step within ABS_TOL (1e-10) would still undershoot
    # zero by more than CLAMP_TOL, so such a step must be retried shorter.
    L = -5.0 * np.eye(4) + 4.95 * np.eye(4, k=-1)
    traj = bb.integrate(lambda x: x @ L.T, np.ones(4), 30.0,
                        bb.IntegratorConfig(adaptive=True))
    assert traj.times[-1] == pytest.approx(30.0, abs=1e-9)
    assert np.min(traj.states) >= 0.0
    for t, x in zip(traj.times[::10], traj.states[::10]):
        assert x == pytest.approx(expm(t * L) @ np.ones(4), abs=1e-8)
    # A flow that really leaves the orthant shrinks the step to its floor.
    with pytest.raises(bb.StepUnderflow):
        bb.integrate(lambda x: -np.ones_like(x), np.array([0.05]), 1.0,
                     bb.IntegratorConfig(adaptive=True))


def test_overflowing_field_is_an_integration_failure():
    # Transmission this strong overflows the first RK4 stages to inf - inf.
    huge = bb.BilinearModel(A=[[-1.0]], A_S=[[-1.0]], B=[[1e300]], P=[[1.0]],
                            Lambda=[1.0])
    with np.errstate(all="ignore"), pytest.raises(bb.PositivityViolation,
                                                  match="nan"):
        bb.integrate(huge.rhs, np.array([0.5, 0.5]), 1.0,
                     bb.IntegratorConfig(step=0.1))


def test_adaptive_matches_fixed_on_smooth_problem(sir, monkeypatch):
    fixed = bb.integrate(sir.rhs, np.array([0.9, 0.1]), 30.0,
                         bb.IntegratorConfig(step=0.001))
    monkeypatch.setattr(sim, "REL_TOL", 1e-10)
    monkeypatch.setattr(sim, "ABS_TOL", 1e-12)
    adaptive = bb.integrate(sir.rhs, np.array([0.9, 0.1]), 30.0,
                            bb.IntegratorConfig(adaptive=True))
    assert adaptive.states[-1] == pytest.approx(fixed.states[-1], abs=1e-7)
    assert adaptive.times[-1] == pytest.approx(30.0, abs=1e-9)


def test_settle_tol_stops_early(sir):
    traj = bb.integrate(sir.rhs, np.array([0.9, 0.1]), 1000.0,
                        bb.IntegratorConfig(step=0.01, settle_tol=1e-10))
    assert traj.terminated_early and traj.reason == "settled"
    assert traj.times[-1] < 1000.0


def test_fixed_step_evaluates_field_four_times_per_step(sir):
    # The field at each accepted state is both the settle test's input and
    # the next step's first stage, so it is evaluated once.
    calls = []

    def rhs(x):
        calls.append(1)
        return sir.rhs(x)

    traj = bb.integrate(rhs, np.array([0.9, 0.1]), 1.0,
                        bb.IntegratorConfig(step=0.01, settle_tol=1e-10))
    steps = traj.times.size - 1
    assert not traj.terminated_early and steps == 100
    assert len(calls) == 4 * steps + 1


def test_batch_matches_single_runs(sir):
    X0 = np.array([[0.9, 0.1], [0.5, 0.7], [2.0, 0.01]])
    batch = bb.integrate_batch(sir.rhs, X0, 20.0, bb.IntegratorConfig(step=0.01))
    for i in range(3):
        single = bb.integrate(sir.rhs, X0[i], 20.0, bb.IntegratorConfig(step=0.01))
        assert batch.single(i).states[-1] == pytest.approx(single.states[-1],
                                                           abs=1e-12)


def test_trajectory_csv_format(sir):
    traj = bb.integrate(sir.rhs, np.array([0.9, 0.1]), 0.02,
                        bb.IntegratorConfig(step=0.01))
    lines = traj.to_csv(["s", "i"]).strip().splitlines()
    assert lines[0] == "t,s,i"
    assert len(lines) == 4  # header + t = 0, 0.01, 0.02
    assert lines[1].split(",")[0] == "0.0"


def test_sample_initial_conditions_ranges():
    rng = rng0(70)
    ref = np.array([2.0, 0.0, 0.5])
    X = sample_initial_conditions(rng, 200, ref)
    assert X.shape == (200, 3)
    assert np.all(X >= 1e-3)
    # Log-uniform window scales with the reference where it is positive.
    assert np.max(X[:, 0]) <= 10.0 * 2.0 + 1e-9


def test_empirical_gas_sir_both_regimes(sir):
    rng_model = with_r0(sir, 0.5)
    frac_dfe = bb.empirical_gas(rng_model.rhs, np.array([1.0, 0.0]),
                                n_starts=10, horizon=400.0, seed=3)
    assert frac_dfe == 1.0
    frac_ee = bb.empirical_gas(sir.rhs, np.array([0.5, 0.5]),
                               n_starts=10, horizon=400.0, seed=4)
    assert frac_ee == 1.0


def test_empirical_gas_invariant_face_never_converges(sir):
    # Starts on the infection-free face stay there; the endemic target is
    # unreachable and the converged fraction is zero.
    rng = rng0(71)
    X0 = np.column_stack([rng.uniform(0.1, 2.0, size=8), np.zeros(8)])
    batch = bb.integrate_batch(sir.rhs, X0, 200.0, bb.IntegratorConfig(step=0.01))
    end = batch.states[-1]
    dist = np.max(np.abs(end - np.array([0.5, 0.5])), axis=1)
    assert np.all(dist > 1e-3)


def test_random_model_trajectories_stay_nonnegative():
    rng = rng0(72)
    for _ in range(5):
        model = with_r0(random_model(rng, 2, 2), float(rng.uniform(0.5, 3.0)))
        x0 = rng.uniform(0.0, 2.0, size=4)
        traj = bb.integrate(model.rhs, x0, 50.0, bb.IntegratorConfig(step=0.01))
        assert np.min(traj.states) >= 0.0


def _settle_step_reference(rhs, X0, horizon, step, tol):
    """The fixed-step loop with the per-row settle test at every step."""
    X = np.array(X0, dtype=float)
    k1 = rhs(X)
    for i in range(max(1, int(round(horizon / step)))):
        X = sim._clamp(sim._rk4_step(rhs, X, step, k1))
        k1 = rhs(X)
        if np.all(np.max(np.abs(k1), axis=-1) <= tol * (1.0 + np.max(np.abs(X), axis=-1))):
            return i + 1, X
    return None, X


@pytest.mark.parametrize("seed", range(6))
def test_settle_shortcut_stops_where_the_per_row_test_does(seed):
    rng = rng0(seed)
    m, n = (int(k) for k in rng.integers(1, 4, size=2))
    model = with_r0(random_model(rng, m, n), float(rng.uniform(0.3, 3.0)))
    X0 = rng.uniform(0.01, 3.0, size=(5, m + n))
    for tol in (1e-4, 1e-8):
        steps, X = _settle_step_reference(model.rhs, X0, 60.0, 0.01, tol)
        batch = bb.integrate_batch(model.rhs, X0, 60.0,
                                   bb.IntegratorConfig(step=0.01, settle_tol=tol))
        assert batch.terminated_early == (steps is not None)
        assert batch.times.size - 1 == (6000 if steps is None else steps)
        assert np.array_equal(batch.states[-1], X)
        assert np.array_equal(batch.times, np.arange(batch.times.size) * 0.01)


def test_batch_positivity_violations_still_raise():
    # A NaN state and a step leaving the orthant both abort, with or
    # without the settle test.
    def nan_field(X):
        return np.where(X < 0.5, np.nan, -X)

    def leaving(X):
        return -np.ones_like(X)

    X0 = np.array([[1.0, 1.0], [0.55, 1.0]])
    for tol in (None, 1e-10):
        cfg = bb.IntegratorConfig(step=0.1, settle_tol=tol)
        with pytest.raises(bb.PositivityViolation, match="nan"):
            bb.integrate_batch(nan_field, X0, 5.0, cfg)
        with pytest.raises(bb.PositivityViolation, match="left the nonnegative orthant"):
            bb.integrate_batch(leaving, X0, 5.0, cfg)
