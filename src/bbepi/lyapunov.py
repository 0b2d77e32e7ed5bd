"""Lyapunov certificates for the disease-free and endemic equilibria.

Three constructions are provided, each returning both the function value and
its orbital derivative in closed form:

* v_dfe: a logarithmic barrier in S plus a linear form in I, valid for
  shared-routing models with diagonal susceptible outflow. Its derivative is
  a negative quadratic in S plus (R0 - 1) times a nonnegative linear form,
  so it certifies global stability of the DFE exactly when R0 <= 1.
* v_ee: the classic sum of normalized `theta - 1 - log theta` wells around
  the endemic point, with weights tied to the left resolvent row of the
  transmission row; the derivative assembles into a nonpositive combination
  of well terms for single-susceptible-class rank-one models above threshold.
* v_transversal: a linear form along the infection block for an arbitrary
  regular splitting of the infection linearization, decaying whenever the
  splitting's reproduction number is below one.

verify_decrease drives sampled trajectories through any of the first two and
reports the worst signed violation of the decrease property, the agreement
between the assembled derivative and the chain rule, and the fraction of
trajectories that reached the attractor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import io

import numpy as np

from . import equilibrium as eq
from . import ngm, sim, spectral
from .errors import (BelowThreshold, IdentityViolation, NonDiagonalAS,
                     NonPositiveState, NotCaseP, NotRankOne, NotRegularSplitting,
                     SingularMatrix)
from .model import BilinearModel, RankClass, RankTag, StateVector, classify_rank

WEIGHT_TOL = 1e-10
CHAIN_RULE_TOL = 1e-8
VIOLATION_TOL = 1e-7
SETTLE_TOL = 1e-11


def _gfun(theta: np.ndarray) -> np.ndarray:
    """The convex well G(theta) = theta - 1 - log(theta), zero only at 1."""
    return theta - 1.0 - np.log(theta)


def _require_diagonal_As(model: BilinearModel):
    off = model.A_S - np.diag(np.diag(model.A_S))
    if np.any(off != 0.0):
        raise NonDiagonalAS("this certificate requires a diagonal susceptible flow matrix")


def _check_chain_rule(V_dot: float, chain: float):
    gap = abs(float(V_dot - chain))
    if not gap <= CHAIN_RULE_TOL * max(1.0, abs(float(V_dot))):
        raise IdentityViolation(f"assembled derivative and chain rule disagree by {gap:.3e}")


def _dfe_data(model: BilinearModel, rank: RankClass):
    if rank.alpha_n is None:
        raise NotCaseP("the disease-free certificate requires a shared routing column")
    _require_diagonal_As(model)
    S0 = model.S0
    R = ngm.replacement_vector(model, rank)
    R0 = float(S0 @ R)
    w = (S0 @ model.B) @ model.Ainv  # linear I-weights
    mu = -np.diag(model.A_S)
    return S0, R0, w, mu


def _v_dfe_batch(model, S0, R0, w, mu, X):
    """Vectorized (V, V_dot assembled, V_dot chain) at states X (..., m+n)."""
    S, I = model.split(X)
    if np.any(S <= 0.0):
        raise NonPositiveState("susceptible block must be strictly positive")
    V = R0 * (S.sum(axis=-1) - np.log(S) @ S0) + I @ w
    S0B = S0 @ model.B
    quad = -R0 * (((S - S0) ** 2 / S) @ mu)
    lin = (R0 - 1.0) * (I @ S0B)
    fb = R0 * (((1.0 - S0 / S)) * (I @ model.C.T)).sum(axis=-1)
    V_dot = quad + lin + fb
    dX = model.rhs(X)
    dS, dI = model.split(dX)
    chain = R0 * ((1.0 - S0 / S) * dS).sum(axis=-1) + dI @ w
    return V, V_dot, chain


def v_dfe(model: BilinearModel, rank: RankClass, state: StateVector):
    """Disease-free certificate value and derivative at one state.

    V = R0 (sum S - S0 . log S) + S0 B (-A)^{-1} I. The closed-form
    derivative is
        -R0 sum_j mu_j (S_j - S0_j)^2 / S_j + (R0 - 1) (S0 B) . I
    plus, when recovery feedback is present, R0 (1 - S0/S) . (C I). The
    closed form is checked against the chain rule at the same state.

    Requires a shared routing column, diagonal A_S, and S > 0 entrywise.
    """
    S0, R0, w, mu = _dfe_data(model, rank)
    X = state.stacked[None, :]
    V, V_dot, chain = _v_dfe_batch(model, S0, R0, w, mu, X)
    _check_chain_rule(V_dot[0], chain[0])
    return float(V[0]), float(V_dot[0])


def ee_weights(model: BilinearModel, S_bar: float | np.ndarray) -> np.ndarray:
    """Endemic certificate weights a = S_bar * beta (-A)^{-1} (m = 1 models).

    The weights satisfy a A = -S_bar beta and, at the endemic point,
    a . alpha = 1; both identities are checked (IdentityViolation).
    """
    if model.m != 1:
        raise NotRankOne("endemic weights are defined for a single susceptible class")
    S_bar = float(np.asarray(S_bar).ravel()[0])
    beta = model.B[0]
    a = S_bar * (beta @ model.Ainv)
    err = float(np.max(np.abs(a @ model.A + S_bar * beta)))
    if not err <= WEIGHT_TOL * max(1.0, S_bar * float(np.max(np.abs(beta)))):
        raise IdentityViolation(f"weight identity a A = -S_bar beta violated by {err:.3e}")
    return a


def _ee_data(model: BilinearModel, report: eq.EquilibriumReport):
    if model.m != 1:
        raise NotRankOne("the endemic certificate requires a single susceptible class")
    if not report.endemic_points:
        raise BelowThreshold("no endemic point available; certificate undefined")
    pt = report.endemic_points[0]
    S_bar = float(pt.S_bar[0])
    I_bar = pt.I_bar
    a = ee_weights(model, S_bar)
    alpha = model.P[:, 0]
    dot = float(a @ alpha)
    if not abs(dot - 1.0) <= WEIGHT_TOL * 10:
        raise IdentityViolation(f"weight pairing a . alpha = 1 violated ({dot:.12f})")
    # Pairwise well coefficients of the assembled derivative.
    c_mat = a[:, None] * model.A * I_bar[None, :]
    np.fill_diagonal(c_mat, 0.0)
    d_mat = (a * alpha)[:, None] * (S_bar * model.B[0] * I_bar)[None, :]
    mu = -float(model.A_S[0, 0])
    Lam = float(model.Lambda[0])
    return pt, S_bar, I_bar, a, c_mat, d_mat, mu, Lam


def _v_ee_batch(model, S_bar, I_bar, a, c_mat, d_mat, mu, Lam, X):
    S, I = model.split(X)
    if np.any(S <= 0.0) or np.any(I <= 0.0):
        raise NonPositiveState("endemic certificate needs a strictly positive state")
    s = S[..., 0] / S_bar
    y = I / I_bar
    V = S_bar * _gfun(s) + (_gfun(y) * (a * I_bar)).sum(axis=-1)

    ratio = y[..., None, :] / y[..., :, None]  # [i, j] = y_j / y_i
    wells_c = (c_mat * _gfun(np.where(c_mat > 0, ratio, 1.0))).sum(axis=(-2, -1))
    wells_d = (d_mat * _gfun(ratio * s[..., None, None])).sum(axis=(-2, -1))
    fb = ((1.0 - 1.0 / s))[..., None] * (I @ model.C.T)
    V_dot = (-Lam * _gfun(1.0 / s) - mu * S_bar * _gfun(s)
             - wells_c - wells_d + fb[..., 0])

    dX = model.rhs(X)
    dS, dI = model.split(dX)
    chain = (1.0 - 1.0 / s) * dS[..., 0] + ((1.0 - 1.0 / y) * dI * a).sum(axis=-1)
    return V, V_dot, chain


def v_ee(model: BilinearModel, report: eq.EquilibriumReport, state: StateVector):
    """Endemic certificate value and derivative at one state (m = 1, R0 > 1).

    V = S_bar G(S/S_bar) + sum_k a_k I_bar_k G(I_k/I_bar_k). The derivative
    assembles into
        -Lambda G(S_bar/S) - mu S_bar G(S/S_bar)
        - sum_{i != j} a_i A_ij I_bar_j G(y_j/y_i)
        - sum_{i, j} a_i alpha_i S_bar beta_j I_bar_j G(y_j s / y_i)
    with s = S/S_bar, y = I/I_bar: every coefficient is nonnegative, so
    V_dot <= 0, with a reported extra term (1 - S_bar/S) . (C I) when
    recovery feedback is present. The assembled form is checked against the
    chain rule.
    """
    pt, S_bar, I_bar, a, c_mat, d_mat, mu, Lam = _ee_data(model, report)
    X = state.stacked[None, :]
    V, V_dot, chain = _v_ee_batch(model, S_bar, I_bar, a, c_mat, d_mat, mu, Lam, X)
    _check_chain_rule(V_dot[0], chain[0])
    return float(V[0]), float(V_dot[0])


def v_transversal(F: np.ndarray, V_mat: np.ndarray, pi: np.ndarray,
                  I: np.ndarray, f: np.ndarray):
    """Linear decay certificate for a regular splitting I' = (F - V) I - f.

    pi must be the left Perron row of K = F V^{-1} (any positive scaling).
    Returns Q = pi . I and Q_dot = (R0 - 1) (pi V) . I - pi . f, which is the
    orbital derivative of Q along the split dynamics; it is nonpositive
    whenever R0 < 1, f >= 0, and I >= 0. R0 = rho(K) is read as the
    spectral abscissa of the nonnegative K.

    Raises
    ------
    NotRegularSplitting
        When F has a negative entry or V^{-1} is not entrywise nonnegative.
    IdentityViolation
        When R0 < 1 and Q_dot is positive beyond roundoff.
    """
    F = np.asarray(F, dtype=float)
    V_mat = np.asarray(V_mat, dtype=float)
    pi = np.asarray(pi, dtype=float).ravel()
    I = np.asarray(I, dtype=float).ravel()
    f = np.asarray(f, dtype=float).ravel()
    if np.any(F < 0.0):
        raise NotRegularSplitting("gain part F must be entrywise nonnegative")
    try:
        Vinv = spectral.inv(V_mat)
    except SingularMatrix as exc:
        raise NotRegularSplitting("loss part V must be invertible") from exc
    if float(np.min(Vinv)) < -1e-12 * max(1.0, float(np.max(np.abs(Vinv)))):
        raise NotRegularSplitting("V^{-1} has a negative entry; splitting not regular")
    if np.any(pi <= 0.0):
        raise ValueError("pi must be entrywise positive")
    if np.any(I < 0.0) or np.any(f < 0.0):
        raise ValueError("I and f must be entrywise nonnegative")
    R0 = spectral.spectral_abscissa(F @ Vinv)
    q = pi @ V_mat
    Q = float(pi @ I)
    Q_dot = float((R0 - 1.0) * (q @ I) - pi @ f)
    if R0 < 1.0 and not Q_dot <= 1e-12 * max(1.0, abs(Q_dot)):
        raise IdentityViolation(f"decay failed below threshold (Q_dot = {Q_dot:.3e})")
    return Q, Q_dot


@dataclass(frozen=True)
class SamplingConfig:
    """Trajectory sampling plan for verify_decrease.

    Fixed parts are constants: start factors in [sim.IC_LOW, sim.IC_HIGH],
    floored at sim.IC_FLOOR; settling to SETTLE_TOL; convergence within
    sim.CONV_REL_TOL of the attractor.
    """

    n_trajectories: int = 20
    horizon: float = 200.0
    step: float = 0.01
    seed: int = 0


@dataclass
class LyapunovCertificate:
    """Sampled-decrease evidence for one certificate kind on one model."""

    kind: str
    verdict: bool
    worst_violation: float
    chain_rule_gap: float
    convergence_fraction: float
    n_trajectories: int
    seed: int
    target: np.ndarray
    times: np.ndarray
    V: np.ndarray      # (T, N)
    V_dot: np.ndarray  # (T, N)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "worst_violation": self.worst_violation,
            "chain_rule_gap": self.chain_rule_gap,
            "convergence_fraction": self.convergence_fraction,
            "n_trajectories": self.n_trajectories,
            "seed": self.seed,
            "target": self.target.tolist(),
        }

    @cached_property
    def _time_strs(self) -> list[str]:
        # .tolist() yields Python floats, whose repr is the bare shortest
        # round-trip form (numpy 2 scalars repr as "np.float64(...)").
        return list(map(repr, self.times.tolist()))

    @cached_property
    def _rows0(self) -> list[str]:
        # Trajectory 0 appears in both CSV files; it is rendered once.
        return self._render_rows(0)

    def _render_rows(self, index: int) -> list[str]:
        """The "t,V,V_dot" lines of one trajectory, without newlines."""
        return list(map(",".join, zip(self._time_strs,
                                      map(repr, self.V[:, index].tolist()),
                                      map(repr, self.V_dot[:, index].tolist()))))

    def _write_rows(self, buf: io.StringIO, index: int, prefix: str = ""):
        rows = self._rows0 if index == 0 else self._render_rows(index)
        if rows:
            buf.write(prefix + ("\n" + prefix).join(rows) + "\n")

    def trace_csv(self, index: int = 0) -> str:
        buf = io.StringIO()
        buf.write("t,V,V_dot\n")
        self._write_rows(buf, index)
        return buf.getvalue()

    def all_traces_csv(self) -> str:
        buf = io.StringIO()
        buf.write("trajectory,t,V,V_dot\n")
        for i in range(self.V.shape[1]):
            self._write_rows(buf, i, f"{i},")
        return buf.getvalue()


def verify_decrease(model: BilinearModel, kind: str,
                    config: SamplingConfig | None = None) -> LyapunovCertificate:
    """Integrate sampled trajectories and audit the decrease property.

    kind is "dfe" or "ee". Initial conditions are log-uniform around the
    attractor with the infection block floored away from zero. The verdict is
    true when the worst signed derivative among all samples stays within
    VIOLATION_TOL (scaled by the derivative's magnitude); the assembled and
    chain-rule derivatives are compared on every sample; the convergence
    fraction counts endpoints within sim.CONV_REL_TOL of the attractor. A
    plan over sim.MAX_SAMPLES states is refused before any start is drawn.
    """
    cfg = config or SamplingConfig()
    rank = classify_rank(model)
    if kind == "dfe":
        S0, R0, w, mu = _dfe_data(model, rank)
        target = np.concatenate([S0, np.zeros(model.n)])

        def evaluate(X):
            return _v_dfe_batch(model, S0, R0, w, mu, X)
    elif kind == "ee":
        if rank.tag is RankTag.GENERAL:
            raise NotRankOne("the endemic certificate requires rank-one transmission")
        report = eq.endemic_rank_one(model, rank)
        pt, S_bar, I_bar, a, c_mat, d_mat, mu_s, Lam = _ee_data(model, report)
        target = np.concatenate([pt.S_bar, pt.I_bar])

        def evaluate(X):
            return _v_ee_batch(model, S_bar, I_bar, a, c_mat, d_mat, mu_s, Lam, X)
    else:
        raise ValueError(f"unknown certificate kind: {kind!r}")

    sim.fixed_steps(cfg.horizon, cfg.step, cfg.n_trajectories)  # before any allocation
    rng = np.random.default_rng(cfg.seed)
    X0 = sim.sample_initial_conditions(rng, cfg.n_trajectories, target)
    batch = sim.integrate_batch(model.rhs, X0, cfg.horizon,
                                sim.IntegratorConfig(step=cfg.step,
                                                     settle_tol=SETTLE_TOL))
    T, N, d = batch.states.shape
    flat = batch.states.reshape(T * N, d)
    # Chunked evaluation: the endemic certificate builds (rows, n, n) ratio
    # arrays, so bound the number of rows held at once.
    pieces = []
    chunk = 1 << 15
    for lo in range(0, flat.shape[0], chunk):
        pieces.append(evaluate(flat[lo:lo + chunk]))
    V = np.concatenate([p[0] for p in pieces]).reshape(T, N)
    V_dot = np.concatenate([p[1] for p in pieces]).reshape(T, N)
    chain = np.concatenate([p[2] for p in pieces]).reshape(T, N)

    scale = max(1.0, float(np.max(np.abs(V_dot))))
    worst = max(0.0, float(np.max(V_dot)))
    gap = float(np.max(np.abs(V_dot - chain)))
    return LyapunovCertificate(
        kind=kind,
        verdict=bool(worst <= VIOLATION_TOL * scale),
        worst_violation=worst,
        chain_rule_gap=gap,
        convergence_fraction=sim.convergence_fraction(batch.states[-1], target),
        n_trajectories=cfg.n_trajectories,
        seed=cfg.seed,
        target=target,
        times=batch.times,
        V=V,
        V_dot=V_dot,
    )
