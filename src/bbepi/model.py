"""Core model container, validation, and rank-structure classification.

The model tracked throughout the package is the compartmental ODE

    S' = Lambda + A_S S - Diag(S) B I + C I
    I' = P Diag(S) B I + A I

with S the susceptible-type block (length m), I the infection block
(length n). A and A_S are Metzler and Hurwitz, B >= 0 carries the
transmission rates, P is column-stochastic and routes each new infection
caused by susceptible class i into infection compartments, Lambda >= 0 is
inflow, and C >= 0 returns recovered outflow into susceptible classes.
Column-stochasticity of P is what makes the bilinear terms balance: every
infection leaving S arrives, whole, somewhere in I.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import spectral
from .errors import DegenerateB, DimensionMismatch, ParseError

COLSUM_TOL = 1e-9
HURWITZ_TOL = 1e-9
RANK_TOL = 1e-8


class RankTag(enum.Enum):
    """Transmission structure class of a model."""

    CASE_P = "CaseP"  # all columns of P coincide
    CASE_B = "CaseB"  # B is rank one
    BOTH = "Both"
    GENERAL = "General"


def _as_matrix(x, shape, name: str) -> np.ndarray:
    arr = np.array(x, dtype=float)
    if arr.shape != shape:
        raise DimensionMismatch(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


@dataclass(frozen=True)
class BilinearModel:
    """Immutable matrix bundle (A, A_S, B, P, Lambda, C).

    Shapes: A is n x n, A_S is m x m, B is m x n, P is n x m, Lambda is
    length m, C is m x n (zeros when omitted). The model owns read-only
    float64 copies of its arrays, so instances are safe to share between
    threads. S0 = (-A_S)^{-1} Lambda and Ainv = (-A)^{-1} are computed on
    first use and kept, read-only (a SingularMatrix is raised on every use,
    not kept); a concurrent first use may compute one twice, to the same bits.
    """

    A: np.ndarray
    A_S: np.ndarray
    B: np.ndarray
    P: np.ndarray
    Lambda: np.ndarray
    C: np.ndarray | None = None

    def __post_init__(self):
        A = np.atleast_2d(np.array(self.A, dtype=float))
        n = A.shape[0]
        A_S = np.atleast_2d(np.array(self.A_S, dtype=float))
        m = A_S.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        if A_S.shape != (m, m):
            raise DimensionMismatch(f"A_S must be square, got {A_S.shape}")
        B = _as_matrix(self.B, (m, n), "B")
        P = _as_matrix(self.P, (n, m), "P")
        Lambda = _as_matrix(np.ravel(self.Lambda), (m,), "Lambda")
        C = self.C
        C = np.zeros((m, n)) if C is None else _as_matrix(C, (m, n), "C")
        # The field as one affine map plus one bilinear term (see rhs).
        d = m + n
        c = np.concatenate([Lambda, np.zeros(n)])
        L = np.zeros((d, d))
        L[:m, :m] = A_S.T
        L[m:, :m] = C.T
        L[m:, m:] = A.T
        E = np.hstack([-np.eye(m), P.T])
        for name, arr in (("A", A), ("A_S", A_S), ("B", B), ("P", P),
                          ("Lambda", Lambda), ("C", C), ("_c", c), ("_L", L),
                          ("_Bt", B.T), ("_E", E)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def S0(self) -> np.ndarray:
        """Disease-free susceptible profile (-A_S)^{-1} Lambda."""
        S0 = spectral.m_inverse(self.A_S) @ self.Lambda
        S0.setflags(write=False)
        return S0

    @cached_property
    def Ainv(self) -> np.ndarray:
        """Mean residence operator (-A)^{-1}."""
        Ainv = spectral.m_inverse(self.A)
        Ainv.setflags(write=False)
        return Ainv

    @property
    def m(self) -> int:
        return self.A_S.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def split(self, x: np.ndarray):
        """Split a stacked state (..., m+n) into (S, I) blocks."""
        x = np.asarray(x, dtype=float)
        return x[..., : self.m], x[..., self.m:]

    def rhs(self, x: np.ndarray) -> np.ndarray:
        """Vector field at stacked state(s) x = (S, I), shape (..., m+n).

        Evaluated as c + x L + (S * (I B^T)) E with c = (Lambda, 0),
        L = [[A_S^T, 0], [C^T, A^T]] and E = [-I_m, P^T]: the linear flows,
        inflow and recovery feedback in one product, and the bilinear
        transfer leaving S and arriving, routed by P, in I.
        """
        x = np.asarray(x, dtype=float)
        m = self.m
        return self._c + x @ self._L + (x[..., :m] * (x[..., m:] @ self._Bt)) @ self._E

    def to_dict(self) -> dict:
        return {"m": self.m, "n": self.n,
                **{k: getattr(self, k).tolist() for k in _MODEL_KEYS[2:] + ("C",)}}


@dataclass(frozen=True)
class StateVector:
    """A point (S, I) of the state space."""

    S: np.ndarray
    I: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "S", np.asarray(self.S, dtype=float).ravel())
        object.__setattr__(self, "I", np.asarray(self.I, dtype=float).ravel())

    @property
    def stacked(self) -> np.ndarray:
        return np.concatenate([self.S, self.I])


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "marginal"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class ValidationReport:
    """Per-invariant validation outcome for a model."""

    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
        }


@dataclass
class AccessReport:
    """Reachability of compartments from inflow / infection entry points."""

    s_accessible: np.ndarray
    i_accessible: np.ndarray

    @property
    def passed(self) -> bool:
        return bool(self.s_accessible.all() and self.i_accessible.all())

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "s_accessible": self.s_accessible.tolist(),
            "i_accessible": self.i_accessible.tolist(),
        }


@dataclass(frozen=True)
class RankClass:
    """Outcome of transmission rank classification.

    alpha_n is the shared routing column (tag CaseP or Both), alpha_m/beta the
    rank-one factors of B with alpha_m on the unit simplex (tag CaseB or Both).
    """

    tag: RankTag
    alpha_n: np.ndarray | None = None
    alpha_m: np.ndarray | None = None
    beta: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "tag": self.tag.value,
            "alpha_n": None if self.alpha_n is None else self.alpha_n.tolist(),
            "alpha_m": None if self.alpha_m is None else self.alpha_m.tolist(),
            "beta": None if self.beta is None else self.beta.tolist(),
        }


def _hurwitz_check(M: np.ndarray, name: str) -> CheckResult:
    s = spectral.spectral_abscissa(M)
    if s < -HURWITZ_TOL:
        return CheckResult(f"{name}.hurwitz", "pass", f"abscissa {s:.3e}")
    if abs(s) <= HURWITZ_TOL:
        return CheckResult(f"{name}.hurwitz", "marginal",
                           f"abscissa {s:.3e} within +/-{HURWITZ_TOL:g} of zero")
    return CheckResult(f"{name}.hurwitz", "fail",
                       f"abscissa {s:.3e} >= {-HURWITZ_TOL:g}")


def _metzler_check(M: np.ndarray, name: str) -> CheckResult:
    off = M - np.diag(M.diagonal())
    worst = float(off.min())
    if worst >= 0.0:
        return CheckResult(f"{name}.metzler", "pass")
    i, j = np.unravel_index(np.argmin(off), off.shape)
    return CheckResult(f"{name}.metzler", "fail",
                       f"entry ({i},{j}) = {M[i, j]:.3e} < 0")


def _nonneg_check(M: np.ndarray, name: str) -> CheckResult:
    worst = float(M.min())
    if worst >= 0.0:
        return CheckResult(f"{name}.nonnegative", "pass")
    idx = np.unravel_index(np.argmin(M), M.shape)
    return CheckResult(f"{name}.nonnegative", "fail",
                       f"entry {idx} = {worst:.3e} < 0")


def validate_model(model: BilinearModel) -> ValidationReport:
    """Check every structural invariant of the model, one result per check.

    Spectral abscissas within +/-HURWITZ_TOL of zero are classified as
    marginal rather than passing, since downstream resolvent inverses degrade
    there. Shape errors raise DimensionMismatch at construction time, not
    here.
    """
    rep = ValidationReport()
    rep.checks.append(_metzler_check(model.A, "A"))
    rep.checks.append(_hurwitz_check(model.A, "A"))
    rep.checks.append(_metzler_check(model.A_S, "A_S"))
    rep.checks.append(_hurwitz_check(model.A_S, "A_S"))
    rep.checks.append(_nonneg_check(model.B, "B"))
    rep.checks.append(_nonneg_check(model.P, "P"))
    rep.checks.append(_nonneg_check(model.Lambda, "Lambda"))
    rep.checks.append(_nonneg_check(model.C, "C"))

    colsums = model.P.sum(axis=0)
    err = float(abs(colsums - 1.0).max()) if colsums.size else 0.0
    if err <= COLSUM_TOL:
        rep.checks.append(CheckResult("P.column_stochastic", "pass",
                                      f"max |colsum-1| = {err:.3e}"))
    else:
        j = int(np.argmax(np.abs(colsums - 1.0)))
        rep.checks.append(CheckResult("P.column_stochastic", "fail",
                                      f"column {j} sums to {colsums[j]:.12g}"))

    if (model.B == 0.0).all():
        rep.checks.append(CheckResult("B.nonzero", "fail",
                                      "B is identically zero; no transmission"))
    else:
        rep.checks.append(CheckResult("B.nonzero", "pass"))
    return rep


def validate_accessibility(model: BilinearModel) -> AccessReport:
    """Reachability of every compartment from its natural entry points.

    Susceptible classes must be reachable from some class with positive
    inflow along positive off-diagonal entries of A_S. Infection classes
    must be reachable, along positive off-diagonal entries of A, from some
    class that receives new infections (a nonzero row of P).
    """
    s_entry = np.flatnonzero(model.Lambda > 0.0)
    i_entry = np.flatnonzero(model.P.sum(axis=1) > 0.0)
    return AccessReport(
        s_accessible=spectral.reachable(model.A_S > 0.0, s_entry),
        i_accessible=spectral.reachable(model.A > 0.0, i_entry),
    )


def classify_rank(model: BilinearModel) -> RankClass:
    """Classify the transmission structure and recover its factors.

    CaseP holds when the columns of P all coincide within RANK_TOL
    (relatively); the shared column alpha_n is taken as the mean column.
    CaseB holds when B is numerically rank one (second singular value below
    RANK_TOL times the first); B is then factored as outer(alpha_m, beta)
    with alpha_m scaled to the unit simplex. Both can hold at once (always for m = 1).

    Raises
    ------
    DegenerateB
        When B is identically zero, which supports no classification.
    """
    if (model.B == 0.0).all():
        raise DegenerateB("B is identically zero")

    P, B = model.P, model.B
    alpha_n = None
    mean_col = P.mean(axis=1)
    scale = max(1.0, float(abs(P).max()))
    if abs(P - mean_col[:, None]).max() <= RANK_TOL * scale:
        alpha_n = mean_col

    alpha_m = beta = None
    U, s, Vt = spectral.svd(B)
    if s.size == 1 or s[1] <= RANK_TOL * s[0]:
        u = U[:, 0]
        v = Vt[0, :]
        if u.sum() < 0:
            u, v = -u, -v
        usum = float(u.sum())
        alpha_m = u / usum
        beta = s[0] * usum * v
        beta = np.where(abs(beta) < 1e-14 * abs(beta).max(), 0.0, beta)

    if alpha_n is not None and alpha_m is not None:
        tag = RankTag.BOTH
    elif alpha_n is not None:
        tag = RankTag.CASE_P
    elif alpha_m is not None:
        tag = RankTag.CASE_B
    else:
        tag = RankTag.GENERAL
    return RankClass(tag=tag, alpha_n=alpha_n, alpha_m=alpha_m, beta=beta)


_MODEL_KEYS = ("m", "n", "A", "A_S", "B", "P", "Lambda")


def loads_model(text: str) -> BilinearModel:
    """Parse a model bundle from JSON text.

    Top-level keys (case sensitive): m, n, A, A_S, B, P, Lambda, and
    optionally C. Matrices are row-major nested arrays; numbers are read in
    double precision and must be finite. Declared m and n must match every
    array shape.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid model JSON: {exc}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    missing = [k for k in _MODEL_KEYS if k not in doc]
    if missing:
        raise ParseError(f"missing model keys: {', '.join(missing)}")
    m, n = doc["m"], doc["n"]
    if not (isinstance(m, int) and isinstance(n, int) and m >= 1 and n >= 1):
        raise ParseError("m and n must be positive integers")
    try:
        model = BilinearModel(
            A=np.asarray(doc["A"], dtype=float),
            A_S=np.asarray(doc["A_S"], dtype=float),
            B=np.asarray(doc["B"], dtype=float),
            P=np.asarray(doc["P"], dtype=float),
            Lambda=np.asarray(doc["Lambda"], dtype=float),
            C=None if doc.get("C") is None else np.asarray(doc["C"], dtype=float),
        )
    except (ValueError, TypeError) as exc:
        raise ParseError(f"malformed numeric array: {exc}") from exc
    bad = [k for k in _MODEL_KEYS[2:] + ("C",)
           if not np.isfinite(getattr(model, k)).all()]
    if bad:
        raise ParseError(f"non-finite entries (NaN or Infinity) in {', '.join(bad)}")
    if model.m != m or model.n != n:
        raise DimensionMismatch(
            f"declared (m, n) = ({m}, {n}) but arrays imply ({model.m}, {model.n})"
        )
    return model


def load_model(path) -> BilinearModel:
    """Read a model bundle from a JSON file (conventionally *.model)."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_model(fh.read())
