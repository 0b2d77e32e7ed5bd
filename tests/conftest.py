"""Shared model builders and independent oracles for the test suite.

Builders produce random valid models of each transmission-rank class from a
caller-supplied seeded generator. Oracles deliberately avoid the library
code paths they are used to check: siphons are re-derived by a power-set
filter, equilibria by multi-start root finding on the raw vector field,
Jacobians by finite differences, and amplitude-law root counts by a dense
sign scan.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.optimize import brentq, root as scipy_root

from bbepi import BilinearModel, reproduction_number


# ---------------------------------------------------------------------------
# builders


def random_metzler_hurwitz(rng: np.random.Generator, k: int) -> np.ndarray:
    """Metzler matrix made Hurwitz by strict diagonal dominance."""
    M = rng.uniform(0.0, 1.0, size=(k, k))
    np.fill_diagonal(M, 0.0)
    margin = rng.uniform(0.3, 1.2, size=k)
    M[np.diag_indices(k)] = -(M.sum(axis=1) + margin)
    return M


def random_stochastic_columns(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    P = rng.uniform(0.2, 1.0, size=(n, m))
    return P / P.sum(axis=0, keepdims=True)


def random_model(rng: np.random.Generator, m: int, n: int,
                 case: str = "general") -> BilinearModel:
    """Random valid model; `case` is 'casep', 'caseb', or 'general'."""
    A = random_metzler_hurwitz(rng, n)
    A_S = random_metzler_hurwitz(rng, m)
    Lam = rng.uniform(0.5, 2.0, size=m)
    if case == "casep":
        alpha = random_stochastic_columns(rng, n, 1).ravel()
        P = np.tile(alpha[:, None], (1, m))
        B = rng.uniform(0.2, 2.0, size=(m, n))
    elif case == "caseb":
        P = random_stochastic_columns(rng, n, m)
        alpha_m = random_stochastic_columns(rng, m, 1).ravel()
        beta = rng.uniform(0.2, 2.0, size=n)
        B = np.outer(alpha_m, beta)
    elif case == "general":
        P = random_stochastic_columns(rng, n, m)
        B = rng.uniform(0.2, 2.0, size=(m, n))
    else:
        raise ValueError(f"unknown case {case!r}")
    return BilinearModel(A=A, A_S=A_S, B=B, P=P, Lambda=Lam)


def with_r0(model: BilinearModel, target: float) -> BilinearModel:
    """Rescale B (R0 is linear in B) so the model has the requested R0."""
    current = reproduction_number(model)
    return BilinearModel(A=model.A, A_S=model.A_S,
                         B=model.B * (target / current), P=model.P,
                         Lambda=model.Lambda, C=model.C)


def diagonal_As(model: BilinearModel, rng: np.random.Generator) -> BilinearModel:
    """Replace A_S by a random negative diagonal (Lyapunov hypotheses)."""
    mu = rng.uniform(0.5, 1.5, size=model.m)
    return BilinearModel(A=model.A, A_S=np.diag(-mu), B=model.B,
                         P=model.P, Lambda=model.Lambda, C=model.C)


def feedback_C(model: BilinearModel, rng: np.random.Generator,
               strength: float = 0.8) -> np.ndarray:
    """Random recovery feedback that recycles less mass than leaves I.

    Column j of C is scaled so its sum is `strength` times the exit rate of
    infection compartment j. This keeps the tail of the amplitude law,
    1^T C D_w, at most `strength` < 1, so an endemic root exists whenever
    R0 > 1; an unconstrained C >= 0 can recycle enough mass that the law
    never falls below one and no endemic point exists at any amplitude.
    """
    exits = -model.A.sum(axis=0)  # outflow rate of each infection compartment
    C = rng.uniform(0.1, 1.0, size=(model.m, model.n))
    return C * (strength * exits / C.sum(axis=0))[None, :]


@pytest.fixture
def sir() -> BilinearModel:
    """The scalar anchor model: R0 = 2, endemic point (1/2, 1/2)."""
    return BilinearModel(A=[[-1.0]], A_S=[[-1.0]], B=[[2.0]], P=[[1.0]],
                         Lambda=[1.0])


# ---------------------------------------------------------------------------
# oracles


def oracle_minimal_siphons(net) -> list[tuple[int, ...]]:
    """Independent power-set filter for inclusion-minimal siphons."""
    n = net.n_species
    Gamma = net.Gamma
    src = net.source_matrix

    def ok(members: frozenset[int]) -> bool:
        for r in range(net.n_reactions):
            if any(Gamma[i, r] > 0 for i in members) and \
                    not any(src[i, r] > 0 for i in members):
                return False
        return True

    all_siphons = [frozenset(c)
                   for size in range(1, n + 1)
                   for c in itertools.combinations(range(n), size)
                   if ok(frozenset(c))]
    minimal = [s for s in all_siphons
               if not any(o < s for o in all_siphons)]
    return sorted(tuple(sorted(s)) for s in minimal)


def oracle_fd_jacobian(rhs, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    J = np.empty((x.size, x.size))
    for j in range(x.size):
        step = h * (1.0 + abs(x[j]))
        xp = x.copy(); xp[j] += step
        xm = x.copy(); xm[j] -= step
        J[:, j] = (np.asarray(rhs(xp)) - np.asarray(rhs(xm))) / (2.0 * step)
    return J


def oracle_endemic_points(model: BilinearModel, n_starts: int = 60,
                          seed: int = 0) -> list[np.ndarray]:
    """Multi-start root finding on the raw field; interior roots only."""
    rng = np.random.default_rng(seed)
    d = model.m + model.n
    found: list[np.ndarray] = []
    for _ in range(n_starts):
        x0 = rng.uniform(0.05, 3.0, size=d)
        sol = scipy_root(model.rhs, x0, method="hybr", tol=1e-13)
        x = sol.x
        if not sol.success or np.any(x < -1e-9):
            continue
        if np.max(np.abs(model.rhs(x))) > 1e-9:
            continue
        _, I = model.split(x)
        if np.max(I) <= 1e-8:
            continue  # disease-free or boundary
        if not any(np.max(np.abs(x - y)) <= 1e-6 for y in found):
            found.append(x)
    return found


def oracle_root_count(H_vals: np.ndarray) -> int:
    """Count strict sign changes of a sampled scalar law minus its level."""
    signs = np.sign(H_vals)
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] * signs[:-1] < 0))


def oracle_feedback_roots(model: BilinearModel, k_hi: float) -> list[float]:
    """Roots of the shared-routing feedback law by a dense sign scan.

    H_C(k) = R . (k Diag(R) - A_S)^{-1} (Lambda + k C D_w) is rebuilt from
    the model matrices (R = B (-A)^{-1} alpha, D_w = (-A)^{-1} alpha with
    alpha the first routing column), sampled at 20001 log-spaced points of
    [1e-8, k_hi] by batched solves, and every strict sign change of H_C - 1
    is refined by brentq.
    """
    D_w = np.linalg.solve(-model.A, model.P[:, 0])
    R, c = model.B @ D_w, model.C @ D_w

    def H(k):
        k = np.atleast_1d(np.asarray(k, dtype=float))
        M = k[:, None, None] * np.diag(R)[None] - model.A_S[None]
        rhs = model.Lambda[None, :] + k[:, None] * c[None, :]
        return np.linalg.solve(M, rhs[..., None])[..., 0] @ R

    ks = np.geomspace(1e-8, k_hi, 20001)
    vals = H(ks) - 1.0
    keep = vals != 0.0
    ks, vals = ks[keep], vals[keep]
    idx = np.flatnonzero(vals[1:] * vals[:-1] < 0)
    return [brentq(lambda k: float(H(k)[0]) - 1.0, ks[i], ks[i + 1],
                   xtol=1e-14, rtol=1e-13) for i in idx]
