"""Disease-free and endemic equilibria, scalar amplitude laws, and Jacobians.

The disease-free equilibrium is S0 = (-A_S)^{-1} Lambda. Above threshold
(reproduction number R0 > 1) endemic equilibria are located two ways:

* rank-one transmission: the infection profile lies on an explicit ray and
  its amplitude k solves H(k) = R . (k L0 - A_S)^{-1} (Lambda + k c) = 1
  ((R, L0, c) from _rank_one_pencil, for each rank-one class; with recovery
  feedback the law can have several roots). Its roots are exactly the
  positive real eigenvalues of k (L0 - c R^T) x = (A_S + Lambda R^T) x,
  found by one dense m x m eigenvalue solve of the better-conditioned side,
  with no grid and no bracketing;
* general transmission: the force of infection u = B I in R^m solves the
  closed m-dimensional system u = G (S(u) * u), S(u) = (Diag(u) - A_S)^{-1}
  Lambda, G = B (-A)^{-1} P, by Newton's method with an analytic Jacobian,
  seeded on the Perron ray of the loop form G Diag(S0) at the amplitude the
  same eigenvalue solve finds; the threshold condition rho(K~(S)) = 1 is
  verified at the result.

The determinant identity det J_EE = -det J_DFE = mu_S det(A) (1 - R0) is
checked for single-susceptible-class rank-one models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import ngm, spectral
from .errors import (BelowThreshold, IdentityViolation, NoConvergence, NonFiniteValue,
                     NotApplicable, NotCaseP, NotRankOne, SingularMatrix)
from .model import BilinearModel, RankClass, RankTag, StateVector

THRESHOLD_BAND = 1e-9
NORMALIZATION_TOL = 1e-10
RESIDUAL_TOL = 1e-8
SPECTRAL_RADIUS_TOL = 1e-8
MAX_HALVINGS = 60
K_MAX_MARGIN = 2.0 ** 4
ROOT_REL_TOL = 1e-6
INFINITE_ROOT_TOL = 1e-12
NEWTON_TOL = 1e-12
NEWTON_MAXITER = 50


def __getattr__(name):
    # brentq is not called here, but the benchmark's span tracer wraps this
    # module attribute (bench/spans.py, target "equilibrium.brentq") and fails
    # if it is missing. Resolving it on first access keeps scipy out of
    # `import bbepi`; this goes once that span target is dropped.
    if name == "brentq":
        from scipy.optimize import brentq
        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def dfe(model: BilinearModel) -> np.ndarray:
    """Disease-free susceptible profile (-A_S)^{-1} Lambda (read-only)."""
    return model.S0


def reproduction_number(model: BilinearModel) -> float:
    """Spectral radius of the next-generation operator at the DFE.

    The loop form is nonnegative, so its spectral radius is its spectral
    abscissa, read from the eigenvalues alone.
    """
    return spectral.spectral_abscissa(ngm.loop_ngm(model, model.S0))


def jacobian(model: BilinearModel, state: StateVector) -> np.ndarray:
    """Analytic Jacobian of the vector field at (S, I), blocks in (S, I) order."""
    S, I = state.S, state.I
    BI = model.B @ I
    F = ngm.force_of_infection(model, S)
    top = np.hstack([model.A_S - np.diag(BI), -(S[:, None] * model.B) + model.C])
    bot = np.hstack([model.P @ np.diag(BI), F + model.A])
    return np.vstack([top, bot])


def residual_inf(model: BilinearModel, S: np.ndarray, I: np.ndarray) -> float:
    """Sup-norm of the vector field at (S, I)."""
    x = np.concatenate([np.asarray(S, float).ravel(), np.asarray(I, float).ravel()])
    return float(abs(model.rhs(x)).max())


def _endemic_residual(model: BilinearModel, S_bar: np.ndarray,
                      I_bar: np.ndarray) -> tuple[float, bool]:
    """The residual at an endemic point, and whether it is within RESIDUAL_TOL
    relative to 1 + the point's largest entry (a NaN residual is not)."""
    res = residual_inf(model, S_bar, I_bar)
    scale = 1.0 + float(abs(np.concatenate([S_bar, I_bar])).max())
    return res, res <= RESIDUAL_TOL * scale


@dataclass(frozen=True)
class EndemicPoint:
    """One endemic equilibrium with its ray amplitude and residual."""

    S_bar: np.ndarray
    I_bar: np.ndarray
    k: float
    residual: float
    saddle_node: bool = False

    def to_dict(self) -> dict:
        return {
            "S_bar": self.S_bar.tolist(),
            "I_bar": self.I_bar.tolist(),
            "k": self.k,
            "residual": self.residual,
            "saddle_node": self.saddle_node,
        }


@dataclass
class EquilibriumReport:
    """Threshold summary plus all endemic points a solver found."""

    S0: np.ndarray
    R0: float
    endemic_points: list[EndemicPoint] = field(default_factory=list)
    threshold: bool = False
    solver: str = ""
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "S0": self.S0.tolist(),
            "R0": self.R0,
            "endemic_points": [p.to_dict() for p in self.endemic_points],
            "threshold": self.threshold,
            "solver": self.solver,
            "notes": list(self.notes),
        }


@dataclass
class ScalarLaw:
    """A scalar amplitude law k -> H(k) with its roots and diagnostics.

    k_max is a proven bound on every root, unless exhausted: k = infinity
    solves the law, no finite bound exists, and k_max is K_MAX_MARGIN.
    """

    kind: str
    R0: float
    H: Callable[[float], float]
    H_prime: Callable[[float], float]
    roots: list[float] = field(default_factory=list)
    deriv_at_roots: list[float] = field(default_factory=list)
    saddle_flags: list[bool] = field(default_factory=list)
    k_max: float = 0.0
    exhausted: bool = False
    uniqueness_condition: bool | None = None
    backward_bifurcation: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "R0": self.R0,
            "roots": list(self.roots),
            "deriv_at_roots": list(self.deriv_at_roots),
            "saddle_flags": list(self.saddle_flags),
            "k_max": self.k_max,
            "exhausted": self.exhausted,
            "uniqueness_condition": self.uniqueness_condition,
            "backward_bifurcation": self.backward_bifurcation,
        }


def _require_no_feedback(model: BilinearModel, what: str):
    if np.any(model.C != 0.0):
        raise NotApplicable(f"{what} requires C = 0; use feedback_analysis instead")


def _threshold_report(S0, R0, solver) -> EquilibriumReport:
    rep = EquilibriumReport(S0=S0, R0=R0, solver=solver)
    if abs(R0 - 1.0) <= THRESHOLD_BAND:
        rep.threshold = True
        rep.notes.append("R0 within the threshold band of 1; no endemic point reported")
    else:
        rep.notes.append("R0 <= 1: no positive endemic equilibrium")
    return rep


def _pencil_ratios(pair: np.ndarray) -> list[float]:
    """cond(L), cond(M) and sigma_1(M) / sigma_min(L) from one values-only
    SVD of the stacked pair (L, M); x / 0 (0 / 0 too) and NaN read inf."""
    L, M = spectral.svdvals(pair).tolist()
    return [a / b if b > 0.0 else math.inf
            for a, b in ((L[0], L[-1]), (M[0], M[-1]), (M[0], L[-1]))]


def _amplitude_roots(A_S: np.ndarray, Lambda: np.ndarray, R: np.ndarray, L0: np.ndarray,
                     c: np.ndarray) -> tuple[list[float], list[bool], bool, float]:
    """Positive roots of H(k) = R . (k L0 - A_S)^{-1} (Lambda + k c) = 1.

    After classes with a zero column of L0 and R_i = 0 are eliminated by a
    Schur complement of A_S, they are the eigenvalues of k L x = M x with
    L = L0 - c R^T and M = A_S + Lambda R^T (x scaled to R . x = 1),
    multiplicities included (matrix determinant lemma). L is singular when
    H(infinity) = 1 or L0 is near singular, M when H(0) = R0 = 1; the side
    with the smaller condition number (both read off one SVD of the stacked
    pair) is inverted, and mu = 1/k ~ 0 there stands for k = infinity. Real
    positive eigenvalues within ROOT_REL_TOL of each other (a split real
    or a conjugate pair) merge into one double root at their mean. Returns
    the sorted roots, whether each merged two or more eigenvalues, whether
    k = infinity was dropped, and the bound
    K_MAX_MARGIN * max(1, sigma_1(M) / sigma_min(L)) on every finite root
    (|k| sigma_min(L) <= |M x| <= sigma_1(M) for unit x), inf when k =
    infinity solves the law (sigma_min(L) = 0).
    """
    K = (L0 != 0.0).any(axis=0) | (R != 0.0)
    J = ~K
    if J.any():
        X = spectral.solve(A_S[np.ix_(J, J)], np.column_stack(
            [A_S[np.ix_(J, K)], Lambda[J], c[J]]))
        A_KJ = A_S[np.ix_(K, J)]
        L0 = L0[np.ix_(K, K)] - A_KJ @ spectral.solve(A_S[np.ix_(J, J)], L0[np.ix_(J, K)])
        A_S = A_S[np.ix_(K, K)] - A_KJ @ X[:, :-2]
        Lambda = Lambda[K] - A_KJ @ X[:, -2]
        c = c[K] - A_KJ @ X[:, -1]
        R = R[K]

    pair = np.array([L0 - np.outer(c, R), A_S + np.outer(Lambda, R)])
    if not np.isfinite(pair).all():
        raise NonFiniteValue("amplitude law is not finite (overflow in its pencil)")
    lhs, rhs = pair
    try:
        # The SVD is undefined on 0 x 0 matrices: with every class
        # eliminated the law is H = 0 and both sides are empty.
        cond_lhs, cond_rhs, ratio = _pencil_ratios(pair) if R.size else (0.0, 0.0, 0.0)
        if cond_lhs <= cond_rhs:
            k, at_infinity = spectral.eigvals(spectral.solve(lhs, rhs)), False
        else:
            mu = spectral.eigvals(spectral.solve(rhs, lhs))
            finite = abs(mu) > INFINITE_ROOT_TOL * abs(mu).max()
            k, at_infinity = 1.0 / mu[finite], not finite.all()
    except (SingularMatrix, NoConvergence):
        raise NoConvergence("amplitude law is degenerate: k = 0 and "
                            "k = infinity both solve it") from None
    real = np.sort(k.real[(k.real > 0.0) & (np.abs(k.imag) <= ROOT_REL_TOL * np.abs(k))])
    roots, doubles = [], []
    for r in real:
        if roots and r - roots[-1] <= ROOT_REL_TOL * r:
            roots[-1], doubles[-1] = 0.5 * (roots[-1] + float(r)), True
        else:
            roots.append(float(r))
            doubles.append(False)
    return roots, doubles, at_infinity, K_MAX_MARGIN * max(1.0, ratio)


def _rank_one_pencil(model: BilinearModel, rank: RankClass) -> tuple:
    """(R, L0, c, point) of the amplitude law of a rank-one class.

    Every endemic point has an amplitude k with
    H(k) = R . (k L0 - A_S)^{-1} (Lambda + k c) = 1 and is point(k) =
    (S_bar, I_bar). Shared routing: I = k D_w, L0 = Diag(R), c = C D_w.
    Rank-one B = alpha_m beta: k = beta . I, I = k G S with
    G = (-A)^{-1} P Diag(alpha_m), L0 = Diag(alpha_m) - C G and c = 0.
    """
    if rank.tag is RankTag.GENERAL:
        raise NotCaseP("amplitude law needs shared routing or a rank-one B")
    R = ngm.replacement_vector(model, rank)
    if rank.alpha_n is not None:
        D_w, L0 = ngm.dwell_times(model, rank), np.diag(R)

        def point(k):
            I_bar = k * D_w
            return spectral.solve(k * L0 - model.A_S, model.Lambda + model.C @ I_bar), I_bar
        return R, L0, model.C @ D_w, point

    L0 = np.diag(rank.alpha_m) - model.C @ (model.Ainv @ (model.P * rank.alpha_m))

    def point(k):
        S_bar = spectral.solve(k * L0 - model.A_S, model.Lambda)
        return S_bar, k * (model.Ainv @ (model.P @ (S_bar * rank.alpha_m)))
    return R, L0, np.zeros(model.m), point


def endemic_rank_one(model: BilinearModel, rank: RankClass) -> EquilibriumReport:
    """Endemic equilibrium of a rank-one model without feedback.

    The amplitude k solves H(k) = R . (k L0 - A_S)^{-1} Lambda = 1, with
    (R, L0) from _rank_one_pencil; H decreases strictly from H(0) = R0 to 0,
    so for R0 > 1 there is exactly one root, taken from the eigenvalue solve
    of _amplitude_roots (NoConvergence if it does not return exactly one).
    The builder's point at that k is checked against S_bar . R = 1 and the
    full vector-field residual. Below threshold the report carries no
    endemic point.
    """
    _require_no_feedback(model, "endemic_rank_one")
    if rank.tag is RankTag.GENERAL:
        raise NotRankOne("endemic_rank_one requires rank-one transmission structure")
    S0 = model.S0
    R, L0, c, point = _rank_one_pencil(model, rank)
    R0 = float(S0 @ R)
    if R0 <= 1.0 or abs(R0 - 1.0) <= THRESHOLD_BAND:
        return _threshold_report(S0, R0, "rank_one")

    roots, _, _, _ = _amplitude_roots(model.A_S, model.Lambda, R, L0, c)
    if len(roots) != 1:
        raise NoConvergence(f"amplitude law with R0 = {R0:.12g} > 1 has roots "
                            f"{roots}, expected exactly one")
    (k_star,) = roots
    S_bar, I_bar = point(k_star)

    norm_err = abs(float(S_bar @ R) - 1.0)
    if not norm_err <= NORMALIZATION_TOL:
        raise IdentityViolation(
            f"endemic normalization S_bar . R = 1 violated by {norm_err:.3e}")
    res, ok = _endemic_residual(model, S_bar, I_bar)
    if not ok:
        raise NoConvergence(f"endemic reconstruction residual {res:.3e} too large")

    rep = EquilibriumReport(S0=S0, R0=R0, solver="rank_one")
    rep.endemic_points.append(EndemicPoint(S_bar=S_bar, I_bar=I_bar,
                                           k=float(k_star), residual=res))
    return rep


def endemic_spectral(model: BilinearModel) -> EquilibriumReport:
    """Endemic equilibrium of a feedback-free model of any transmission rank.

    With u = B I the force of infection, an equilibrium has
    S(u) = (Diag(u) - A_S)^{-1} Lambda and I = (-A)^{-1} P (S(u) * u), so u
    solves the m-dimensional system

        F(u) = u - G (S(u) * u) = 0,   G = B (-A)^{-1} P,

    which is solved by Newton's method with the analytic Jacobian
    I - G Diag(S) + G Diag(u) (Diag(u) - A_S)^{-1} Diag(S), halving each
    step until u stays positive. The seed lies on the Perron ray t v of the
    loop form G Diag(S0) (pi, v its left and right Perron vectors), where
    pi . G Diag(S(t v)) v = pi . v. That condition is the amplitude law
    H(t) = 1 with R' = v * (pi G) / (pi . v), L0 = Diag(v) and c = 0, whose
    one root (H(0) = R0 > 1 and H decreases, because S(u) decreases
    entrywise in u) comes from the eigenvalue solve of _amplitude_roots. For
    irreducible G the endemic point is unique (Lajmanovich & Yorke 1976),
    so one root is all there is. The threshold condition
    rho(K~(S_bar)) = 1 and the full vector-field residual are verified at
    the result.

    Requires C = 0 and an irreducible circulation matrix G.
    """
    _require_no_feedback(model, "endemic_spectral")
    G = ngm.loop_gain(model)
    S0 = model.S0
    sd = spectral.perron(G * S0[None, :])
    R0 = sd.rho
    if R0 <= 1.0 or abs(R0 - 1.0) <= THRESHOLD_BAND:
        return _threshold_report(S0, R0, "spectral")
    if not spectral.is_irreducible(G):
        raise NotApplicable("circulation matrix B(-A)^{-1}P is reducible")

    v, pi = sd.w_right, sd.pi_left
    seeds, _, _, _ = _amplitude_roots(model.A_S, model.Lambda, v * (pi @ G) / float(pi @ v),
                                      np.diag(v), np.zeros(model.m))
    if len(seeds) != 1:
        raise NoConvergence(f"seed amplitude law with R0 = {R0:.12g} > 1 has "
                            f"roots {seeds}, expected exactly one")
    u = seeds[0] * v
    for iters in range(NEWTON_MAXITER + 1):
        M = np.diag(u) - model.A_S
        S = spectral.solve(M, model.Lambda)
        F = u - G @ (S * u)
        F_inf = float(abs(F).max())
        if F_inf <= NEWTON_TOL * float(u.max()):
            break
        if iters == NEWTON_MAXITER:
            raise NoConvergence(f"Newton on u = B I did not converge in {iters} "
                                f"iterations (||F||_inf = {F_inf:.3e})")
        J = (np.eye(model.m) - G * S[None, :]
             + (G * u[None, :]) @ spectral.solve(M, np.diag(S)))
        step = spectral.solve(J, F)
        for _ in range(MAX_HALVINGS):
            if (u - step > 0.0).all():
                break
            step = 0.5 * step
        else:
            raise NoConvergence("Newton step on u = B I cannot keep u positive")
        u = u - step

    S_bar, I_bar = S, model.Ainv @ (model.P @ (S * u))

    rho_at = spectral.spectral_abscissa(ngm.loop_ngm(model, S_bar, gain=G))
    if abs(rho_at - 1.0) > SPECTRAL_RADIUS_TOL:
        raise NoConvergence(f"threshold condition violated: rho = {rho_at:.12f}")
    res, ok = _endemic_residual(model, S_bar, I_bar)
    if not ok:
        raise NoConvergence(f"endemic residual {res:.3e} exceeds tolerance")

    rep = EquilibriumReport(S0=S0, R0=R0, solver="spectral")
    k_report = float(S_bar @ (model.B @ I_bar))  # bilinear throughput amplitude
    rep.endemic_points.append(EndemicPoint(S_bar=S_bar, I_bar=I_bar,
                                           k=k_report, residual=res))
    return rep


@dataclass(frozen=True)
class DeterminantLaw:
    """Signed-determinant identity at the two equilibria (m = 1, rank one)."""

    det_J_dfe: float
    det_J_ee: float
    closed_form_dfe: float
    closed_form_ee: float
    holds: bool

    def to_dict(self) -> dict:
        return {
            "det_J_dfe": self.det_J_dfe,
            "det_J_ee": self.det_J_ee,
            "closed_form_dfe": self.closed_form_dfe,
            "closed_form_ee": self.closed_form_ee,
            "holds": self.holds,
        }


def determinant_law(model: BilinearModel, rank: RankClass,
                    report: EquilibriumReport | None = None) -> DeterminantLaw:
    """det J_EE = -det J_DFE = mu_S det(A) (1 - R0) for m = 1 rank-one models.

    mu_S is the single susceptible outflow rate -A_S[0, 0]. Requires R0 > 1
    so both equilibria exist; the endemic point is taken from `report`, or
    computed on the fly when no report is passed.
    """
    if model.m != 1:
        raise NotApplicable("determinant law requires a single susceptible class")
    if rank.tag is RankTag.GENERAL:
        raise NotRankOne("determinant law requires rank-one transmission")
    _require_no_feedback(model, "determinant_law")
    if report is None:
        report = endemic_rank_one(model, rank)
    if not report.endemic_points:
        raise BelowThreshold("determinant law needs an endemic equilibrium (R0 > 1)")

    S0, R0 = report.S0, report.R0
    pt = report.endemic_points[0]
    J_dfe = jacobian(model, StateVector(S0, np.zeros(model.n)))
    J_ee = jacobian(model, StateVector(pt.S_bar, pt.I_bar))
    det_dfe = float(spectral.det(J_dfe))
    det_ee = float(spectral.det(J_ee))
    mu = -float(model.A_S[0, 0])
    detA = float(spectral.det(model.A))
    cf_dfe = -mu * detA * (1.0 - R0)
    cf_ee = mu * detA * (1.0 - R0)
    scale = max(1.0, abs(det_dfe), abs(det_ee))
    tol = RESIDUAL_TOL * scale
    holds = (abs(det_dfe + det_ee) <= tol and abs(det_dfe - cf_dfe) <= tol
             and abs(det_ee - cf_ee) <= tol)
    return DeterminantLaw(det_J_dfe=det_dfe, det_J_ee=det_ee,
                          closed_form_dfe=cf_dfe, closed_form_ee=cf_ee,
                          holds=holds)


def feedback_analysis(model: BilinearModel, rank: RankClass
                      ) -> tuple[ScalarLaw, EquilibriumReport]:
    """All endemic equilibria of a rank-one model with recovery feedback.

    The DFE, replacement vector and reproduction number are unchanged by C.
    Every endemic point lies on the ray of _rank_one_pencil, with amplitude
    k solving

        H_C(k) = R . (k L0 - A_S)^{-1} (Lambda + k c) = 1,

    no longer monotone in k; all its positive roots come from one eigenvalue
    solve (_amplitude_roots), and a root that merged two or more eigenvalues
    (a double root of H_C = 1) is flagged as a saddle-node. Multiple roots with
    R0 < 1 are the signature of a backward bifurcation. Roots whose point
    has a negative entry or a residual above RESIDUAL_TOL (relative) are
    skipped with a note. k_max bounds every root (see ScalarLaw). The
    sufficient uniqueness condition max(C D_w) < min(mu_S) / max(R) is
    evaluated for shared routing above threshold only (else None).

    With R0 within THRESHOLD_BAND of 1 the report sets threshold, notes it,
    and drops the branch through k = 0: the roots with |k H_C'(0)| <=
    2 THRESHOLD_BAND, where H_C is within the band of H_C(0) to first order
    (2 covers curvature). The test is dimensionless, free of the units of k;
    other roots, such as a backward bifurcation's, are kept.
    """
    S0 = model.S0
    R, L0, c, point = _rank_one_pencil(model, rank)
    R0 = float(S0 @ R)

    def H(k: float) -> float:
        M = spectral.inv(k * L0 - model.A_S)
        return float(R @ (M @ (model.Lambda + k * c)))

    def H_prime(k: float) -> float:
        M = spectral.inv(k * L0 - model.A_S)
        inner = M @ (model.Lambda + k * c)
        return float(R @ (-M @ (L0 @ inner) + M @ c))

    roots, flags, at_infinity, k_max = _amplitude_roots(model.A_S, model.Lambda, R, L0, c)
    exhausted = k_max == np.inf
    threshold = abs(R0 - 1.0) <= THRESHOLD_BAND
    if threshold:
        slope = abs(H_prime(0.0))
        kept = [i for i, r in enumerate(roots) if r * slope > 2.0 * THRESHOLD_BAND]
        roots, flags = [roots[i] for i in kept], [flags[i] for i in kept]
    derivs = [H_prime(r) for r in roots]

    unique_ok = (bool(c.max() < -model.A_S.diagonal().max() / R.max())
                 if rank.alpha_n is not None and R0 > 1.0 else None)

    law = ScalarLaw(kind="feedback_amplitude", R0=R0, H=H, H_prime=H_prime,
                    roots=roots, deriv_at_roots=derivs,
                    saddle_flags=flags, k_max=K_MAX_MARGIN if exhausted else k_max,
                    exhausted=exhausted, uniqueness_condition=unique_ok,
                    backward_bifurcation=bool(R0 < 1.0 and roots))

    rep = EquilibriumReport(S0=S0, R0=R0, solver="feedback", threshold=threshold)
    if threshold:
        rep.notes.append("R0 within the threshold band of 1; roots on the "
                         "branch through k = 0 not reported")
    if at_infinity:
        rep.notes.append("H_C -> 1 as k -> infinity (no net removal from I, "
                         "as when 1^T C D_w = 1); finite roots only")
    for r, fl in zip(roots, flags):
        S_bar, I_bar = point(r)
        if (S_bar < 0).any() or (I_bar < 0).any():
            rep.notes.append(f"root k={r:.6g} produced a sign-violating point; skipped")
            continue
        res, ok = _endemic_residual(model, S_bar, I_bar)
        if not ok:
            rep.notes.append(f"root k={r:.6g} produced a point with residual "
                             f"{res:.3e}; skipped")
            continue
        rep.endemic_points.append(
            EndemicPoint(S_bar=S_bar, I_bar=I_bar, k=float(r),
                         residual=res, saddle_node=fl)
        )
    return law, rep
