"""Disease-free and endemic equilibria, scalar amplitude laws, and Jacobians.

The disease-free equilibrium is S0 = (-A_S)^{-1} Lambda. Above threshold
(reproduction number R0 > 1) endemic equilibria are located two ways:

* rank-one transmission: the infection profile lies on an explicit ray and
  its amplitude k solves H(k) = R . (k Diag(a) - A_S)^{-1} (Lambda + k c) = 1
  (a = R or alpha_m; c = 0, or C D_w with recovery feedback, when the law
  can have several roots). Its roots are exactly the positive real
  eigenvalues of k (Diag(a) - c R^T) x = (A_S + Lambda R^T) x, found by one
  dense m x m eigenvalue solve of the better-conditioned side, with no grid
  and no bracketing;
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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import ngm, spectral
from .errors import (BelowThreshold, IdentityViolation, NoConvergence,
                     NotApplicable, NotCaseP, NotRankOne)
from .model import BilinearModel, RankClass, RankTag, StateVector

THRESHOLD_BAND = 1e-9
NORMALIZATION_TOL = 1e-10
RESIDUAL_TOL = 1e-8
SPECTRAL_RADIUS_TOL = 1e-8
MAX_DOUBLINGS = 60
MAX_HALVINGS = 60
EXTRA_DOUBLINGS = 4
SCAN_K_MIN = 1e-8
ROOT_REL_TOL = 1e-6
INFINITE_ROOT_TOL = 1e-12
DOUBLE_ROOT_DERIV_TOL = 1e-6
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
    """Disease-free susceptible profile (-A_S)^{-1} Lambda."""
    return spectral.m_inverse(model.A_S) @ model.Lambda


def reproduction_number(model: BilinearModel) -> float:
    """Spectral radius of the next-generation operator at the DFE."""
    return spectral.perron(ngm.loop_ngm(model, dfe(model))).rho


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
    return float(np.max(np.abs(model.rhs(x))))


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
    det_J_dfe: float | None = None
    det_J_ee: float | None = None

    def to_dict(self) -> dict:
        return {
            "S0": self.S0.tolist(),
            "R0": self.R0,
            "endemic_points": [p.to_dict() for p in self.endemic_points],
            "threshold": self.threshold,
            "solver": self.solver,
            "notes": list(self.notes),
            "det_J_dfe": self.det_J_dfe,
            "det_J_ee": self.det_J_ee,
        }


@dataclass
class ScalarLaw:
    """A scalar amplitude law k -> H(k) with its roots and diagnostics."""

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


def _threshold_report(S0, R0, solver, note) -> EquilibriumReport:
    rep = EquilibriumReport(S0=S0, R0=R0, solver=solver)
    if abs(R0 - 1.0) <= THRESHOLD_BAND:
        rep.threshold = True
        rep.notes.append("R0 within the threshold band of 1; no endemic point reported")
    else:
        rep.notes.append(note)
    return rep


def _amplitude_roots(A_S: np.ndarray, Lambda: np.ndarray, R: np.ndarray,
                     a: np.ndarray, c: np.ndarray) -> tuple[list[float], bool]:
    """Positive roots of H(k) = R . (k Diag(a) - A_S)^{-1} (Lambda + k c) = 1.

    After classes with a_i = 0 (so R_i = 0) are eliminated by a Schur
    complement of A_S, they are the eigenvalues of
    k (Diag(a) - c R^T) x = (A_S + Lambda R^T) x (x scaled to R . x = 1),
    multiplicities included (matrix determinant lemma). The left side is
    singular when H(infinity) = 1 or some a_i is tiny, the right when
    H(0) = R0 = 1; the side with the smaller condition number is inverted,
    and mu = 1/k ~ 0 there stands for k = infinity. Real positive roots
    within ROOT_REL_TOL of each other (a split real or a conjugate pair) are
    one double root at their mean. Returns the sorted roots and whether
    k = infinity was dropped.
    """
    K = a != 0.0
    J = ~K
    if J.any():
        X = np.linalg.solve(A_S[np.ix_(J, J)], np.column_stack(
            [A_S[np.ix_(J, K)], Lambda[J], c[J]]))
        A_KJ = A_S[np.ix_(K, J)]
        A_S = A_S[np.ix_(K, K)] - A_KJ @ X[:, :-2]
        Lambda = Lambda[K] - A_KJ @ X[:, -2]
        c = c[K] - A_KJ @ X[:, -1]
        R, a = R[K], a[K]

    lhs = np.diag(a) - np.outer(c, R)
    rhs = A_S + np.outer(Lambda, R)
    try:
        # cond is undefined on 0 x 0 matrices: with every class eliminated
        # the law is H = 0 and both sides are empty.
        if not a.size or np.linalg.cond(lhs) <= np.linalg.cond(rhs):
            k, at_infinity = np.linalg.eigvals(np.linalg.solve(lhs, rhs)), False
        else:
            mu = np.linalg.eigvals(np.linalg.solve(rhs, lhs))
            finite = np.abs(mu) > INFINITE_ROOT_TOL * np.max(np.abs(mu))
            k, at_infinity = 1.0 / mu[finite], not finite.all()
    except np.linalg.LinAlgError:
        raise NoConvergence("amplitude law is degenerate: k = 0 and "
                            "k = infinity both solve it") from None
    real = np.sort(k.real[(k.real > 0.0) & (np.abs(k.imag) <= ROOT_REL_TOL * np.abs(k))])
    roots: list[float] = []
    for r in real:
        if roots and r - roots[-1] <= ROOT_REL_TOL * r:
            roots[-1] = 0.5 * (roots[-1] + float(r))
        else:
            roots.append(float(r))
    return roots, at_infinity


def endemic_rank_one(model: BilinearModel, rank: RankClass) -> EquilibriumReport:
    """Endemic equilibrium of a rank-one model without feedback.

    The amplitude k solves H(k) = R . (k Diag(a) - A_S)^{-1} Lambda = 1 with
    a = R (shared routing) or a = alpha_m (rank-one B); H decreases strictly
    from H(0) = R0 to 0, so for R0 > 1 there is exactly one root, taken from
    the eigenvalue solve of _amplitude_roots (NoConvergence if it does not
    return exactly one). The equilibrium is reconstructed from k in closed
    form and its full vector-field residual is verified. Below threshold the
    report carries no endemic point.
    """
    _require_no_feedback(model, "endemic_rank_one")
    if rank.tag is RankTag.GENERAL:
        raise NotRankOne("endemic_rank_one requires rank-one transmission structure")
    S0 = dfe(model)
    R = ngm.replacement_vector(model, rank)
    R0 = float(S0 @ R)
    if R0 <= 1.0 or abs(R0 - 1.0) <= THRESHOLD_BAND:
        return _threshold_report(S0, R0, "rank_one",
                                 "R0 <= 1: no positive endemic equilibrium")

    Ainv = spectral.m_inverse(model.A)
    shared_routing = rank.alpha_n is not None
    a = R if shared_routing else rank.alpha_m

    roots, _ = _amplitude_roots(model.A_S, model.Lambda, R, a, np.zeros(model.m))
    if len(roots) != 1:
        raise NoConvergence(f"amplitude law with R0 = {R0:.12g} > 1 has roots "
                            f"{roots}, expected exactly one")
    (k_star,) = roots

    S_bar = np.linalg.solve(k_star * np.diag(a) - model.A_S, model.Lambda)
    if shared_routing:
        I_bar = k_star * (Ainv @ rank.alpha_n)
    else:
        I_bar = k_star * (Ainv @ (model.P @ (S_bar * rank.alpha_m)))

    norm_err = abs(float(S_bar @ R) - 1.0)
    if not norm_err <= NORMALIZATION_TOL:
        raise IdentityViolation(
            f"endemic normalization S_bar . R = 1 violated by {norm_err:.3e}")
    res = residual_inf(model, S_bar, I_bar)
    scale = 1.0 + float(np.max(np.abs(np.concatenate([S_bar, I_bar]))))
    if res > RESIDUAL_TOL * scale:
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
    H(t) = 1 with R' = v * (pi G) / (pi . v), a = v and c = 0, whose one
    root (H(0) = R0 > 1 and H decreases, because S(u) decreases entrywise
    in u) comes from the eigenvalue solve of _amplitude_roots. For
    irreducible G the endemic point is unique (Lajmanovich & Yorke 1976),
    so one root is all there is. The threshold condition
    rho(K~(S_bar)) = 1 and the full vector-field residual are verified at
    the result.

    Requires C = 0 and an irreducible circulation matrix G.
    """
    _require_no_feedback(model, "endemic_spectral")
    G = ngm.loop_gain(model)
    S0 = dfe(model)
    sd = spectral.perron(G * S0[None, :])
    R0 = sd.rho
    if R0 <= 1.0 or abs(R0 - 1.0) <= THRESHOLD_BAND:
        return _threshold_report(S0, R0, "spectral",
                                 "R0 <= 1: no positive endemic equilibrium")
    if not spectral.is_irreducible(G):
        raise NotApplicable("circulation matrix B(-A)^{-1}P is reducible")

    v, pi = sd.w_right, sd.pi_left
    seeds, _ = _amplitude_roots(model.A_S, model.Lambda,
                                v * (pi @ G) / float(pi @ v), v, np.zeros(model.m))
    if len(seeds) != 1:
        raise NoConvergence(f"seed amplitude law with R0 = {R0:.12g} > 1 has "
                            f"roots {seeds}, expected exactly one")
    u = seeds[0] * v
    for iters in range(NEWTON_MAXITER + 1):
        M = np.diag(u) - model.A_S
        S = np.linalg.solve(M, model.Lambda)
        F = u - G @ (S * u)
        F_inf = float(np.max(np.abs(F)))
        if F_inf <= NEWTON_TOL * float(np.max(u)):
            break
        if iters == NEWTON_MAXITER:
            raise NoConvergence(f"Newton on u = B I did not converge in {iters} "
                                f"iterations (||F||_inf = {F_inf:.3e})")
        J = (np.eye(model.m) - G * S[None, :]
             + (G * u[None, :]) @ np.linalg.solve(M, np.diag(S)))
        step = np.linalg.solve(J, F)
        for _ in range(MAX_HALVINGS):
            if np.all(u - step > 0.0):
                break
            step = 0.5 * step
        else:
            raise NoConvergence("Newton step on u = B I cannot keep u positive")
        u = u - step

    S_bar, I_bar = S, spectral.m_inverse(model.A) @ (model.P @ (S * u))

    rho_at = spectral.perron(ngm.loop_ngm(model, S_bar, gain=G)).rho
    if abs(rho_at - 1.0) > SPECTRAL_RADIUS_TOL:
        raise NoConvergence(f"threshold condition violated: rho = {rho_at:.12f}")
    res = residual_inf(model, S_bar, I_bar)
    scale = 1.0 + float(np.max(np.abs(np.concatenate([S_bar, I_bar]))))
    if res > RESIDUAL_TOL * scale:
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
                    report: EquilibriumReport | None = None,
                    rel_tol: float = RESIDUAL_TOL) -> DeterminantLaw:
    """det J_EE = -det J_DFE = mu_S det(A) (1 - R0) for m = 1 rank-one models.

    mu_S is the single susceptible outflow rate -A_S[0, 0]. Requires R0 > 1
    so both equilibria exist; the endemic point is taken from `report` or
    computed on the fly.
    """
    if model.m != 1:
        raise NotApplicable("determinant law requires a single susceptible class")
    if rank.tag is RankTag.GENERAL:
        raise NotRankOne("determinant law requires rank-one transmission")
    _require_no_feedback(model, "determinant_law")
    if report is None or not report.endemic_points:
        report = endemic_rank_one(model, rank)
    if not report.endemic_points:
        raise BelowThreshold("determinant law needs an endemic equilibrium (R0 > 1)")

    S0, R0 = report.S0, report.R0
    pt = report.endemic_points[0]
    J_dfe = jacobian(model, StateVector(S0, np.zeros(model.n)))
    J_ee = jacobian(model, StateVector(pt.S_bar, pt.I_bar))
    det_dfe = float(np.linalg.det(J_dfe))
    det_ee = float(np.linalg.det(J_ee))
    mu = -float(model.A_S[0, 0])
    detA = float(np.linalg.det(model.A))
    cf_dfe = -mu * detA * (1.0 - R0)
    cf_ee = mu * detA * (1.0 - R0)
    scale = max(1.0, abs(det_dfe), abs(det_ee))
    holds = (abs(det_dfe + det_ee) <= rel_tol * scale
             and abs(det_dfe - cf_dfe) <= rel_tol * scale
             and abs(det_ee - cf_ee) <= rel_tol * scale)
    return DeterminantLaw(det_J_dfe=det_dfe, det_J_ee=det_ee,
                          closed_form_dfe=cf_dfe, closed_form_ee=cf_ee,
                          holds=holds)


def feedback_analysis(model: BilinearModel, rank: RankClass
                      ) -> tuple[ScalarLaw, EquilibriumReport]:
    """All endemic equilibria of a shared-routing model with recovery feedback.

    The DFE, replacement vector, reproduction number, and dwell profile are
    unchanged by C. Every endemic point has I = k D_w with amplitude k
    solving

        H_C(k) = R . (k Diag(R) - A_S)^{-1} (Lambda + k C D_w) = 1,

    no longer monotone in k; all its positive roots come from one eigenvalue
    solve (_amplitude_roots), and a root with |k H_C'(k)| within
    DOUBLE_ROOT_DERIV_TOL is flagged as a saddle-node. Multiple roots with
    R0 < 1 are the signature of a backward bifurcation. Roots whose point
    has a negative entry or a residual above RESIDUAL_TOL (relative) are
    skipped with a note. A sufficient condition for uniqueness,
    max(C D_w) < min(mu_S) / max(R), is evaluated and reported.
    """
    if rank.alpha_n is None:
        raise NotCaseP("feedback analysis requires a shared routing column")
    S0 = dfe(model)
    R = ngm.replacement_vector(model, rank)
    R0 = float(S0 @ R)
    D_w = ngm.dwell_times(model, rank)
    CD = model.C @ D_w
    DR = np.diag(R)

    def H(k: float) -> float:
        M = np.linalg.inv(k * DR - model.A_S)
        return float(R @ (M @ (model.Lambda + k * CD)))

    def H_prime(k: float) -> float:
        M = np.linalg.inv(k * DR - model.A_S)
        inner = M @ (model.Lambda + k * CD)
        return float(R @ (-M @ (DR @ inner) + M @ CD))

    # The reported range of the law: the first doubling where H_C < 1, with
    # a margin of extra doublings because H_C may dip below one and return.
    k_max = 1.0
    doublings = 0
    while H(k_max) >= 1.0 and doublings < MAX_DOUBLINGS:
        k_max *= 2.0
        doublings += 1
    exhausted = doublings >= MAX_DOUBLINGS and H(k_max) >= 1.0
    if not exhausted:
        k_max *= 2.0 ** EXTRA_DOUBLINGS

    roots, at_infinity = _amplitude_roots(model.A_S, model.Lambda, R, R, CD)
    roots = [r for r in roots if r > SCAN_K_MIN]  # also drops k = 0 at R0 = 1
    derivs = [H_prime(r) for r in roots]
    flags = [abs(r * d) <= DOUBLE_ROOT_DERIV_TOL for r, d in zip(roots, derivs)]

    mu = -np.diag(model.A_S)
    unique_ok = bool(np.max(CD) < np.min(mu) / np.max(R)) if np.max(R) > 0 else True

    law = ScalarLaw(kind="feedback_amplitude", R0=R0, H=H, H_prime=H_prime,
                    roots=roots, deriv_at_roots=derivs,
                    saddle_flags=flags, k_max=float(k_max),
                    exhausted=exhausted, uniqueness_condition=unique_ok,
                    backward_bifurcation=bool(R0 < 1.0 and roots))

    rep = EquilibriumReport(S0=S0, R0=R0, solver="feedback")
    if exhausted:
        rep.notes.append("H_C stayed >= 1 out to k_max; the eigenvalue solve "
                         "still finds roots beyond it")
    if at_infinity:
        rep.notes.append("H_C -> 1 as k -> infinity (no net removal from I, "
                         "as when 1^T C D_w = 1); finite roots only")
    for r, fl in zip(roots, flags):
        I_bar = r * D_w
        S_bar = np.linalg.solve(r * DR - model.A_S, model.Lambda + model.C @ I_bar)
        if np.any(S_bar < 0) or np.any(I_bar < 0):
            rep.notes.append(f"root k={r:.6g} produced a sign-violating point; skipped")
            continue
        res = residual_inf(model, S_bar, I_bar)
        scale = 1.0 + float(np.max(np.abs(np.concatenate([S_bar, I_bar]))))
        if not res <= RESIDUAL_TOL * scale:
            rep.notes.append(f"root k={r:.6g} produced a point with residual "
                             f"{res:.3e}; skipped")
            continue
        rep.endemic_points.append(
            EndemicPoint(S_bar=S_bar, I_bar=I_bar, k=float(r),
                         residual=res, saddle_node=fl)
        )
    return law, rep
