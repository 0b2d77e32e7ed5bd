"""Next-generation operators, replacement vectors, and eigenvector tables.

The force-of-infection matrix F(S) = P Diag(S) B collects the new-infection
flow at susceptible profile S. Composing with the mean residence operator
(-A)^{-1} gives the next-generation matrix K(S) = F(S) (-A)^{-1} and its
spectrum-sharing companion K~(S) = (-A)^{-1} F(S); their common spectral
radius at the disease-free profile is the reproduction number.

For rank-one transmission (shared routing column alpha_n, or B = alpha_m beta)
all Perron eigenvectors of K and K~ have closed forms, collected by
eig_table, and the reproduction number splits as the dot product of the
susceptible profile with a replacement vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import IdentityViolation, NonPositiveState, NotCaseP, NotRankOne
from .model import BilinearModel, RankClass, RankTag

SPECTRUM_MATCH_TOL = 1e-10


def force_of_infection(model: BilinearModel, S: np.ndarray) -> np.ndarray:
    """F(S) = P Diag(S) B, the n x n new-infection flow matrix at profile S."""
    S = np.asarray(S, dtype=float).ravel()
    return model.P @ (S[:, None] * model.B)


@dataclass(frozen=True)
class NgmBundle:
    """Next-generation data at a fixed susceptible profile."""

    F: np.ndarray
    K: np.ndarray
    K_tilde: np.ndarray
    R0: float
    at_state: np.ndarray


def ngm_at(model: BilinearModel, S: np.ndarray) -> NgmBundle:
    """K(S), K~(S) and their shared spectral radius at profile S >= 0.

    The two products have identical nonzero spectra; the agreement of the
    two radii is checked to 1e-10 as an internal consistency check, and a
    disagreement raises IdentityViolation. Both products are nonnegative, so
    each radius is read as the spectral abscissa (eigenvalues only).
    """
    S = np.asarray(S, dtype=float).ravel()
    if np.any(S < 0):
        raise NonPositiveState("susceptible profile must be entrywise nonnegative")
    F = force_of_infection(model, S)
    K = F @ model.Ainv
    K_tilde = model.Ainv @ F
    rho_K = spectral.spectral_abscissa(K)
    rho_Kt = spectral.spectral_abscissa(K_tilde)
    gap = abs(rho_K - rho_Kt)
    if not gap <= SPECTRUM_MATCH_TOL * max(1.0, rho_K):
        raise IdentityViolation(f"spectral radii of K and K~ disagree by {gap:.3e}")
    return NgmBundle(F=F, K=K, K_tilde=K_tilde, R0=rho_K, at_state=S)


def loop_gain(model: BilinearModel) -> np.ndarray:
    """Susceptible-side circulation matrix B (-A)^{-1} P (m x m).

    Its column-rescaling by a profile S, loop_ngm, shares its nonzero
    spectrum with K(S), which makes the threshold condition an m-dimensional
    statement even when n is large.
    """
    return model.B @ model.Ainv @ model.P


def loop_ngm(model: BilinearModel, S: np.ndarray,
             gain: np.ndarray | None = None) -> np.ndarray:
    """m x m next-generation form loop_gain(model) Diag(S)."""
    S = np.asarray(S, dtype=float).ravel()
    G = loop_gain(model) if gain is None else gain
    return G * S[None, :]


def replacement_vector(model: BilinearModel, rank: RankClass) -> np.ndarray:
    """Per-susceptible-class infectivity weights R with S0 . R = R0.

    Shared-routing models take R = B (-A)^{-1} alpha_n; rank-one B models
    take R_i = alpha_m[i] * (beta (-A)^{-1} p_i). When both structures hold
    the two formulas agree and the first is used.
    """
    if rank.alpha_n is not None:
        return model.B @ model.Ainv @ rank.alpha_n
    if rank.alpha_m is not None:
        return rank.alpha_m * (rank.beta @ model.Ainv @ model.P)
    raise NotRankOne("replacement vector requires rank-one transmission structure")


def dwell_times(model: BilinearModel, rank: RankClass) -> np.ndarray:
    """Time-in-compartment profile D_w = (-A)^{-1} alpha_n (shared routing)."""
    if rank.alpha_n is None:
        raise NotCaseP("dwell times require a shared routing column")
    return model.Ainv @ rank.alpha_n


@dataclass(frozen=True)
class EigTable:
    """Closed-form Perron eigenvectors of K and K~ at the disease-free profile.

    Stored exactly as the closed forms dictate, with no rescaling: then both
    exchange identities w_K = (-A) w_Ktilde and pi_Ktilde = pi_K (-A) hold
    exactly, and both pairings pi . w equal the reproduction number.
    """

    case: RankTag
    w_K: np.ndarray
    pi_K: np.ndarray
    w_Ktilde: np.ndarray
    pi_Ktilde: np.ndarray

    def to_dict(self) -> dict:
        return {
            "case": self.case.value,
            "w_K": self.w_K.tolist(),
            "pi_K": self.pi_K.tolist(),
            "w_Ktilde": self.w_Ktilde.tolist(),
            "pi_Ktilde": self.pi_Ktilde.tolist(),
        }


def eig_table(model: BilinearModel, rank: RankClass) -> EigTable:
    """Closed-form eigenvector table for a rank-one model.

    Shared routing column alpha_n:
        w_K = alpha_n                pi_K = S0 B (-A)^{-1}
        w_K~ = (-A)^{-1} alpha_n     pi_K~ = S0 B
    Rank-one B = outer(alpha_m, beta):
        w_K = P Diag(S0) alpha_m     pi_K = beta (-A)^{-1}
        w_K~ = (-A)^{-1} w_K         pi_K~ = beta

    S0 here is the inflow equilibrium (-A_S)^{-1} Lambda. Models satisfying
    both structures use the shared-routing forms.
    """
    Ainv, S0 = model.Ainv, model.S0
    S0B = S0 @ model.B
    if rank.alpha_n is not None:
        w_K = rank.alpha_n
        pi_K = S0B @ Ainv
        w_Kt = Ainv @ rank.alpha_n
        pi_Kt = S0B
    elif rank.alpha_m is not None:
        w_K = model.P @ (S0 * rank.alpha_m)
        pi_K = rank.beta @ Ainv
        w_Kt = Ainv @ w_K
        pi_Kt = rank.beta
    else:
        raise NotRankOne("eigenvector table requires rank-one transmission structure")
    return EigTable(case=rank.tag, w_K=w_K, pi_K=pi_K, w_Ktilde=w_Kt, pi_Ktilde=pi_Kt)
