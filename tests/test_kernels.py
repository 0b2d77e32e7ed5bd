"""The LAPACK kernels of bbepi.spectral return np.linalg's bits and raise typed errors."""

import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from bbepi import equilibrium as eq
from bbepi import spectral
from bbepi.errors import NoConvergence, SingularMatrix
from bbepi.model import BilinearModel, classify_rank, validate_model


def same(got, want) -> bool:
    """Bitwise equality of results, array by array, dtype included."""
    if isinstance(want, tuple):
        return len(got) == len(want) and all(same(g, w) for g, w in zip(got, want))
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got.real), np.signbit(want.real)))


def matrices(seed=7):
    """Seeded square matrices of size 1-8: general, Metzler, nonnegative,
    rotations (complex spectra), triangular (real repeated spectra)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(1, 9):
        out.append(rng.standard_normal((k, k)))
        M = rng.uniform(0.0, 1.0, (k, k))
        np.fill_diagonal(M, -M.sum(axis=0) - rng.uniform(0.1, 1.0, k))
        out.append(M)
        out.append(rng.uniform(0.0, 2.0, (k, k)))
        out.append(np.triu(rng.standard_normal((k, k))))
    for theta in (0.3, 1.7):
        c, s = np.cos(theta), np.sin(theta)
        out.append(np.array([[c, -s], [s, c]]))
    out.append(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    return out


MATRICES = matrices()


def numpy_svdvals(a):
    return np.linalg.svd(a, compute_uv=False)


def numpy_eig(a):
    return tuple(np.linalg.eig(a))


def numpy_svd(a):
    return tuple(np.linalg.svd(a))


PAIRS = {  # kernel, np.linalg counterpart
    "eigvals": (spectral.eigvals, np.linalg.eigvals),
    "eig": (spectral.eig, numpy_eig),
    "inv": (spectral.inv, np.linalg.inv),
    "svd": (spectral.svd, numpy_svd),
    "svdvals": (spectral.svdvals, numpy_svdvals),
    "det": (spectral.det, np.linalg.det),
}


@pytest.mark.parametrize("name", list(PAIRS))
def test_kernel_is_bitwise_numpy_on_seeded_matrices(name):
    kernel, reference = PAIRS[name]
    for M in MATRICES:
        assert same(kernel(M), reference(M)), (name, M)


@pytest.mark.parametrize("name", list(PAIRS))
def test_kernel_is_bitwise_numpy_on_stacks(name):
    kernel, reference = PAIRS[name]
    rng = np.random.default_rng(8)
    for k in (1, 3, 5):
        stack = rng.standard_normal((4, k, k))
        assert same(kernel(stack), reference(stack)), (name, k)


def test_real_result_exactly_when_numpy_gives_one():
    kinds = set()
    for M in MATRICES:
        w = spectral.eigvals(M)
        values, vectors = spectral.eig(M)
        assert np.iscomplexobj(w) == np.iscomplexobj(np.linalg.eigvals(M))
        assert np.iscomplexobj(values) == np.iscomplexobj(vectors) == np.iscomplexobj(w)
        kinds.add(np.iscomplexobj(w))
    assert kinds == {True, False}


def test_solve_is_bitwise_numpy_for_vector_and_matrix_right_hand_sides():
    rng = np.random.default_rng(9)
    for M in MATRICES:
        k = M.shape[0]
        for b in (rng.standard_normal(k), rng.standard_normal((k, 3)), np.eye(k)):
            assert same(spectral.solve(M, b), np.linalg.solve(M, b))
    stack = rng.standard_normal((4, 3, 3))
    rhs = rng.standard_normal((4, 3, 2))
    assert same(spectral.solve(stack, rhs), np.linalg.solve(stack, rhs))


def test_empty_cases_of_the_amplitude_solve():
    # With every class eliminated, _amplitude_roots solves and reads the
    # eigenvalues of 0 x 0 matrices; the Schur step solves with 0 columns.
    E = np.zeros((0, 0))
    assert same(spectral.solve(E, E), np.linalg.solve(E, E))
    assert same(spectral.solve(E, np.zeros((0, 3))), np.linalg.solve(E, np.zeros((0, 3))))
    assert same(spectral.solve(np.eye(2), np.zeros((2, 0))),
                np.linalg.solve(np.eye(2), np.zeros((2, 0))))
    assert same(spectral.eigvals(E), np.linalg.eigvals(E))
    assert same(spectral.det(E), np.linalg.det(E))
    roots, at_infinity, k_max = eq._amplitude_roots(
        np.array([[-1.0]]), np.array([1.0]), np.array([0.0]), np.array([0.0]),
        np.array([0.0]))
    assert (roots, at_infinity, k_max) == ([], False, eq.K_MAX_MARGIN)


SINGULAR = np.array([[1.0, 2.0], [2.0, 4.0]])
INF = np.array([[np.inf, 1.0], [0.0, 1.0]])
NAN = np.array([[np.nan, 1.0], [0.0, 1.0]])
FAILING = [  # kernel call, its np.linalg counterpart, input, typed error
    ("solve", lambda a: spectral.solve(a, np.ones(2)),
     lambda a: np.linalg.solve(a, np.ones(2)), SINGULAR, SingularMatrix),
    ("solve matrix", lambda a: spectral.solve(a, np.eye(2)),
     lambda a: np.linalg.solve(a, np.eye(2)), np.zeros((2, 2)), SingularMatrix),
    ("inv", spectral.inv, np.linalg.inv, SINGULAR, SingularMatrix),
    ("inv stack", spectral.inv, np.linalg.inv, np.stack([np.eye(2), SINGULAR]),
     SingularMatrix),
    ("eigvals inf", spectral.eigvals, np.linalg.eigvals, INF, NoConvergence),
    ("eigvals nan", spectral.eigvals, np.linalg.eigvals, NAN, NoConvergence),
    ("eig inf", spectral.eig, np.linalg.eig, INF, NoConvergence),
    ("svd nan", spectral.svd, np.linalg.svd, NAN, NoConvergence),
    ("svdvals nan", spectral.svdvals, numpy_svdvals, NAN, NoConvergence),
]


@pytest.mark.parametrize("case", FAILING, ids=[c[0] for c in FAILING])
def test_failures_raise_typed_errors_without_warnings(case):
    _, call, reference, a, error = case
    with pytest.raises(np.linalg.LinAlgError):
        reference(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call(a)


def test_stacked_condition_pair_equals_two_cond_calls():
    # _amplitude_roots chooses its side by the condition numbers it reads off
    # one SVD of the stacked pair; they are np.linalg.cond's bits.
    rng = np.random.default_rng(10)
    sides = [rng.standard_normal((3, 3)), SINGULAR, np.zeros((2, 2)),
             np.diag([1.0, 1e-300]), np.eye(4), INF]
    for lhs in sides:
        for rhs in sides:
            if lhs.shape != rhs.shape:
                continue
            got = eq._pencil_ratios(np.array([lhs, rhs]))
            assert same(got[0], np.linalg.cond(lhs)) and same(got[1], np.linalg.cond(rhs))


def test_root_bound_is_infinite_on_a_zero_left_side():
    # H(k) = 2 (1 + k) / (2 k + 1): L = 2 - 1 * 2 = 0, so cond(L) reads inf
    # (a 0/0 ratio), the other side is inverted, k = infinity is its only
    # root, and no finite bound on the roots exists.
    roots, at_infinity, k_max = eq._amplitude_roots(
        np.array([[-1.0]]), np.array([1.0]), np.array([2.0]), np.array([2.0]),
        np.array([1.0]))
    assert (roots, at_infinity, k_max) == ([], True, np.inf)


def _scan_point():
    """One point of the backward-bifurcation family: C feeds recovered back to S."""
    return BilinearModel(A=[[-1.0]], A_S=[[-0.1]], B=[[3.0]], P=[[1.0]],
                         Lambda=[0.1], C=[[0.9]])


def test_one_scan_point_makes_two_svds(monkeypatch):
    # classify_rank factors B with one full SVD, and _amplitude_roots reads
    # both condition numbers off one values-only SVD of the stacked pair (two
    # np.linalg.cond calls made that three).
    calls = []
    for name in ("svd", "svd_f", "svd_s"):
        real = getattr(_umath_linalg, name)
        monkeypatch.setattr(_umath_linalg, name,
                            lambda *a, _real=real, _name=name, **kw:
                            calls.append(_name) or _real(*a, **kw))
    model = _scan_point()
    assert validate_model(model).passed
    law, _ = eq.feedback_analysis(model, classify_rank(model))
    assert law.roots
    assert sorted(calls) == ["svd", "svd_f"]

