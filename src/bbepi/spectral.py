"""Spectral kernel for nonnegative and Metzler matrices, and every LAPACK call.

Provides the Perron root/vector machinery the rest of the package leans on:
irreducibility testing, one dense eigen kernel (eig of M and M^T at the
rightmost eigenvalue), resolvent inverses of Hurwitz Metzler matrices, and
the rank-one adjugate identity at the rightmost eigenvalue (diagonal
cofactors proportional to the product of the right and left Perron
vectors).

Reads that need the Perron root alone use spectral_abscissa (one eigvals,
no vectors, no irreducibility test). For a nonnegative matrix the
Perron-Frobenius theorem makes the spectral radius equal to the spectral
abscissa, and LAPACK's dgeev returns the same eigenvalues whether or not it
also computes eigenvectors, so the number equals perron(M).rho bit for bit
(the tests check this on next-generation matrices).

This module is the package's one owner of dense linear algebra. The
kernels eigvals, eig, solve, inv, svd, svdvals and det call numpy's
float64 LAPACK gufuncs (numpy.linalg._umath_linalg, numpy >= 2) directly:
on the package's small matrices the np.linalg wrappers cost several times
the LAPACK call itself. Each kernel returns the bits its np.linalg
counterpart returns and keeps its error policy, except that a failure
raises a typed error: SingularMatrix for a singular solve or inverse,
NoConvergence for non-finite eigen input or a LAPACK non-convergence.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NoConvergence, RankTestFailure, SingularMatrix

# Numerical policy knobs. Matrices in scope are small (k <= 64), so every
# eigen-solve is dense. Perron vector entries below PERRON_ZERO_TOL times
# the largest entry are set to zero (reducible input).
PERRON_ZERO_TOL = 1e-11
MINV_RESIDUAL_TOL = 1e-10
MINV_SIGN_TOL = 1e-12
DET_SINGULAR_TOL = 1e-12
ADJ_RANK_TOL = 1e-7
COFACTOR_REL_TOL = 1e-7


class SpectralData(NamedTuple):
    """Perron data of a nonnegative or Metzler matrix.

    rho is the spectral radius, s_abs the spectral abscissa (rightmost real
    part). w_right and pi_left are the eigenvectors attached to the Perron
    eigenvalue (s_abs for Metzler input, equal to rho when the matrix is
    nonnegative). w_right sums to one; pi_left is scaled so pi_left@w_right
    equals one when the matrix is irreducible, otherwise to unit sum.
    """

    rho: float
    s_abs: float
    w_right: np.ndarray
    pi_left: np.ndarray
    irreducible: bool


class KirchhoffData(NamedTuple):
    """Rank-one adjugate data at the rightmost eigenvalue of a Metzler matrix.

    cofactors holds the diagonal cofactors of (lambda_P*Id - J); scale is the
    computed proportionality constant c in adj(lambda_P*Id - J) = c*w*pi.
    Its sign is reported, never assumed.
    """

    lambda_P: float
    w: np.ndarray
    pi: np.ndarray
    cofactors: np.ndarray
    scale: float


# ------------------------------------------------------------------ kernels


def _singular(err, flag):
    raise SingularMatrix("Singular matrix")


def _eig_failed(err, flag):
    raise NoConvergence("Eigenvalues did not converge")


def _svd_failed(err, flag):
    raise NoConvergence("SVD did not converge")


def _lapack_policy(fail):
    """np.linalg's error policy: LAPACK's failure flag (invalid) calls fail."""
    return np.errstate(call=fail, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise NoConvergence("Array must not contain infs or NaNs")


@_lapack_policy(_eig_failed)
def eigvals(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals: real exactly when no imaginary part is nonzero."""
    _require_finite(a)
    w = _umath_linalg.eigvals(a, signature="d->D")
    return w if w.imag.any() else w.real


@_lapack_policy(_eig_failed)
def eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eig as (values, right vectors), real as eigvals is."""
    _require_finite(a)
    w, v = _umath_linalg.eig(a, signature="d->DD")
    return (w, v) if w.imag.any() else (w.real, v.real)


@_lapack_policy(_singular)
def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve: a vector b is one right-hand side, a matrix b many."""
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    return gufunc(a, b, signature="dd->d")


@_lapack_policy(_singular)
def inv(a: np.ndarray) -> np.ndarray:
    """np.linalg.inv."""
    return _umath_linalg.inv(a, signature="d->d")


@_lapack_policy(_svd_failed)
def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.linalg.svd with full matrices, as (U, s, Vt)."""
    return _umath_linalg.svd_f(a, signature="d->ddd")


@_lapack_policy(_svd_failed)
def svdvals(a: np.ndarray) -> np.ndarray:
    """Singular values alone, descending (np.linalg.svd, compute_uv=False)."""
    return _umath_linalg.svd(a, signature="d->d")


def det(a: np.ndarray) -> np.floating | np.ndarray:
    """np.linalg.det (which sets no error policy either)."""
    return _umath_linalg.det(a, signature="d->d")


# --------------------------------------------------------- Perron machinery


def spectral_abscissa(M: np.ndarray) -> float:
    """Rightmost real part of the spectrum, by dense eigendecomposition."""
    return float(eigvals(np.asarray(M, dtype=float)).real.max())


def is_irreducible(M: np.ndarray) -> bool:
    """Strong connectivity of the digraph with an edge i->j iff M[j, i] != 0.

    Diagonal entries are ignored. A 1x1 matrix counts as irreducible.
    """
    M = np.asarray(M, dtype=float)
    if M.shape[0] == 1:
        return True
    adj = M != 0.0
    np.fill_diagonal(adj, False)
    return bool(reachable(adj, [0]).all() and reachable(adj.T, [0]).all())


def reachable(adj: np.ndarray, sources) -> np.ndarray:
    """Mask of nodes reached from `sources`; adj[j, i] True is an edge i -> j.

    Breadth-first over columns; self-loops (the diagonal) never matter.
    """
    seen = np.zeros(adj.shape[0], dtype=bool)
    frontier = list(sources)
    seen[frontier] = True
    while frontier:
        nxt = []
        for i in frontier:
            for j in np.flatnonzero(adj[:, i]):
                if not seen[j]:
                    seen[j] = True
                    nxt.append(j)
        frontier = nxt
    return seen


def perron(M: np.ndarray) -> SpectralData:
    """Perron root and left/right vectors of a nonnegative or Metzler matrix.

    Both vectors come from dense eigendecompositions of M and M^T, taken at
    the eigenvalue with the largest real part; for Metzler input that
    eigenvalue is real and is the spectral abscissa. rho equals it when M
    is nonnegative and is max |lambda| over the spectrum otherwise (a
    negative diagonal can put the largest modulus elsewhere).

    For reducible input rho and s_abs are still correct (taken from the full
    spectrum) but the vectors may have zero entries.

    Parameters
    ----------
    M : ndarray
        Square matrix with nonnegative off-diagonal entries.

    Returns
    -------
    SpectralData
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("perron expects a square matrix")
    off = M - np.diag(np.diag(M))
    if np.min(off) < 0:
        raise ValueError("matrix has a negative off-diagonal entry; not Metzler")
    vals, vecs = eig(M)
    top = int(np.argmax(vals.real))
    lvals, lvecs = eig(M.T)
    w = vecs[:, top].real
    pi = lvecs[:, int(np.argmax(lvals.real))].real
    # Perron vectors are sign-constant; keep the nonnegative orientation.
    w = -w if w.sum() < 0 else w
    pi = -pi if pi.sum() < 0 else pi
    s_abs = float(vals[top].real)
    rho = s_abs if np.min(M) >= 0.0 else float(np.max(np.abs(vals)))

    irr = is_irreducible(M)
    w = np.where(np.abs(w) < PERRON_ZERO_TOL * np.max(np.abs(w)), 0.0, w)
    pi = np.where(np.abs(pi) < PERRON_ZERO_TOL * np.max(np.abs(pi)), 0.0, pi)
    wsum = w.sum()
    if wsum != 0.0:
        w = w / wsum
    dot = float(pi @ w)
    if irr and dot > 0.0:
        pi = pi / dot
    elif pi.sum() != 0.0:
        pi = pi / pi.sum()
    return SpectralData(rho=rho, s_abs=s_abs, w_right=w, pi_left=pi, irreducible=irr)


def m_inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of -A for a Hurwitz Metzler matrix A.

    The result of (-A)^{-1} is entrywise nonnegative for such A; this is
    checked up to roundoff, along with the inversion residual.

    Raises
    ------
    SingularMatrix
        When |det A| is below 1e-12 relative to the Hadamard bound of A
        (the Hurwitz property has failed numerically), when the inverse has
        a negative entry (A is not a Hurwitz Metzler matrix), or when the
        inversion residual is too large.
    """
    A = np.asarray(A, dtype=float)
    k = A.shape[0]
    det_A = float(det(A))
    hadamard = float(np.prod(np.linalg.norm(A, axis=1))) if k else 1.0
    if abs(det_A) <= DET_SINGULAR_TOL * max(hadamard, 1e-300):
        raise SingularMatrix(f"matrix is singular to tolerance (det={det_A:.3e})")
    neg, eye = -A, np.eye(k)
    out = solve(neg, eye)
    scale = max(1.0, float(abs(out).max()))
    low = float(out.min())
    if not low >= -MINV_SIGN_TOL * scale:
        raise SingularMatrix(
            f"(-A)^{{-1}} has a negative entry ({low:.3e}); A is not Hurwitz Metzler")
    residual = float(abs(neg @ out - eye).max())
    if residual > MINV_RESIDUAL_TOL * max(1.0, float(abs(A).max())):
        raise SingularMatrix(f"inversion residual {residual:.3e} too large")
    return out


def adjugate(M: np.ndarray) -> np.ndarray:
    """Adjugate (transposed cofactor matrix), adj(M) @ M = det(M) * Id.

    Every entry is a signed minor, so M may be singular or not at any size.
    """
    M = np.asarray(M, dtype=float)
    k = M.shape[0]
    out = np.empty((k, k))
    idx = np.arange(k)
    for i in range(k):
        rows = idx[idx != i]
        for j in range(k):
            cols = idx[idx != j]
            minor = M[np.ix_(rows, cols)]
            # adj(M)[j, i] = (-1)^{i+j} det(M with row i, col j removed)
            out[j, i] = ((-1.0) ** (i + j)) * det(minor)
    return out


def kirchhoff_perron(J: np.ndarray) -> KirchhoffData:
    """Rank-one adjugate identity at the rightmost eigenvalue of Metzler J.

    For irreducible Metzler J with rightmost (simple) eigenvalue lambda_P, the
    adjugate of N = lambda_P*Id - J has rank one and factors as c * w * pi
    where J w = lambda_P w and pi J = lambda_P pi. In particular the diagonal
    cofactors of N are proportional to w_k * pi_k entrywise; when J has zero
    row sums this reduces to the classical tree-weight formula for the
    stationary distribution.

    Returns the eigenvalue, both eigenvectors (w normalized to unit sum,
    pi to pi @ w = 1), the diagonal cofactors of N, and the constant c.

    Raises
    ------
    RankTestFailure
        When the adjugate is not numerically rank one, or the cofactors are
        not proportional to w_k * pi_k within COFACTOR_REL_TOL.
    """
    J = np.asarray(J, dtype=float)
    k = J.shape[0]
    if k == 1:
        lam = float(J[0, 0])
        one = np.array([1.0])
        return KirchhoffData(lam, one, one, np.array([1.0]), 1.0)
    sd = perron(J)
    lam = sd.s_abs
    N = lam * np.eye(k) - J
    adj = adjugate(N)

    # Rank-one factor check via the dominant singular triplet.
    U, s, Vt = svd(adj)
    if s[0] == 0.0:
        raise RankTestFailure("adjugate vanished; eigenvalue is not simple")
    if k > 1 and s[1] > ADJ_RANK_TOL * s[0]:
        raise RankTestFailure(
            f"adjugate is not rank one (sigma2/sigma1 = {s[1] / s[0]:.3e})"
        )
    w = U[:, 0]
    pi = Vt[0, :]
    if w.sum() < 0:
        w = -w
    if pi.sum() < 0:
        pi = -pi
    w = w / w.sum()
    dot = float(pi @ w)
    if dot == 0.0:
        raise RankTestFailure("left and right null vectors are orthogonal")
    pi = pi / dot
    # Constant c with respect to the normalized pair.
    wp = np.outer(w, pi)
    mask = np.abs(wp) > 1e-13 * np.max(np.abs(wp))
    c = float(np.mean(adj[mask] / wp[mask]))

    cof = np.diag(adj).copy()
    target = w * pi
    scale = np.max(np.abs(cof))
    if scale > 0:
        ratios = cof[np.abs(target) > 1e-13] / target[np.abs(target) > 1e-13]
        spread = float(np.max(ratios) - np.min(ratios))
        mean = float(np.mean(np.abs(ratios)))
        if mean == 0.0 or spread > COFACTOR_REL_TOL * mean:
            raise RankTestFailure(
                f"diagonal cofactors not proportional to w*pi (spread {spread:.3e})"
            )
    return KirchhoffData(lambda_P=lam, w=w, pi=pi, cofactors=cof, scale=c)
