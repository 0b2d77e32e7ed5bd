"""Model container, validation, rank classification, and JSON loading."""

import json

import numpy as np
import pytest

import bbepi as bb
from conftest import feedback_C, random_model, random_stochastic_columns

rng0 = np.random.default_rng


def test_shapes_and_split(sir):
    assert sir.m == 1 and sir.n == 1
    S, I = sir.split(np.array([0.9, 0.1]))
    assert S == pytest.approx([0.9]) and I == pytest.approx([0.1])


def test_rhs_matches_componentwise():
    rng = rng0(1)
    model = random_model(rng, 3, 2)
    x = rng.uniform(0.1, 2.0, size=5)
    S, I = model.split(x)
    dS = model.Lambda + model.A_S @ S - S * (model.B @ I) + model.C @ I
    dI = model.P @ (S * (model.B @ I)) + model.A @ I
    assert model.rhs(x) == pytest.approx(np.concatenate([dS, dI]), abs=1e-14)


def test_rhs_batched_agrees_with_loop():
    rng = rng0(2)
    model = random_model(rng, 2, 3)
    X = rng.uniform(0.0, 2.0, size=(40, 5))
    batch = model.rhs(X)
    for i in range(X.shape[0]):
        assert batch[i] == pytest.approx(model.rhs(X[i]), abs=1e-14)


def test_dimension_mismatch_raises():
    with pytest.raises(bb.DimensionMismatch):
        bb.BilinearModel(A=[[-1.0]], A_S=[[-1.0]], B=[[2.0, 1.0]],
                         P=[[1.0]], Lambda=[1.0])


def test_arrays_are_read_only(sir):
    with pytest.raises(ValueError):
        sir.B[0, 0] = 3.0


def test_validation_passes_on_random_models():
    rng = rng0(3)
    for case in ("casep", "caseb", "general"):
        model = random_model(rng, 3, 3, case)
        report = bb.validate_model(model)
        assert report.passed, report.failures()


def test_validation_flags_bad_column_sum(sir):
    bad = bb.BilinearModel(A=sir.A, A_S=sir.A_S, B=sir.B, P=[[0.9]],
                           Lambda=sir.Lambda)
    report = bb.validate_model(bad)
    assert not report.passed
    assert any(c.name == "P.column_stochastic" for c in report.failures())


def test_validation_flags_non_hurwitz():
    model = bb.BilinearModel(A=[[0.5]], A_S=[[-1.0]], B=[[1.0]], P=[[1.0]],
                             Lambda=[1.0])
    report = bb.validate_model(model)
    assert any(c.name == "A.hurwitz" and c.status == "fail"
               for c in report.checks)


def test_validation_marginal_band():
    model = bb.BilinearModel(A=[[-1e-12]], A_S=[[-1.0]], B=[[1.0]],
                             P=[[1.0]], Lambda=[1.0])
    report = bb.validate_model(model)
    assert any(c.name == "A.hurwitz" and c.status == "marginal"
               for c in report.checks)


def test_accessibility_full_on_connected_models():
    rng = rng0(4)
    model = random_model(rng, 3, 3)
    access = bb.validate_accessibility(model)
    assert access.passed


def test_accessibility_flags_unreachable_compartment():
    # Second infection compartment receives no routing and no transfer.
    A = np.array([[-1.0, 0.0], [0.0, -1.0]])
    model = bb.BilinearModel(A=A, A_S=[[-1.0]], B=[[1.0, 0.0]],
                             P=[[1.0], [0.0]], Lambda=[1.0])
    access = bb.validate_accessibility(model)
    assert access.i_accessible[0] and not access.i_accessible[1]


def test_classify_rank_identifies_each_case():
    rng = rng0(5)
    assert bb.classify_rank(random_model(rng, 3, 4, "casep")).tag is bb.RankTag.CASE_P
    assert bb.classify_rank(random_model(rng, 4, 3, "caseb")).tag is bb.RankTag.CASE_B
    assert bb.classify_rank(random_model(rng, 3, 3, "general")).tag is bb.RankTag.GENERAL


def test_classify_rank_m1_is_both(sir):
    assert bb.classify_rank(sir).tag is bb.RankTag.BOTH


def test_classify_rank_factor_recovery_casep():
    rng = rng0(6)
    for _ in range(30):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        model = random_model(rng, m, n, "casep")
        rank = bb.classify_rank(model)
        assert rank.alpha_n is not None
        assert np.max(np.abs(model.P - rank.alpha_n[:, None])) <= 1e-10


def test_classify_rank_factor_recovery_caseb():
    rng = rng0(7)
    for _ in range(30):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        model = random_model(rng, m, n, "caseb")
        rank = bb.classify_rank(model)
        assert rank.alpha_m is not None and rank.beta is not None
        assert np.sum(rank.alpha_m) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(np.outer(rank.alpha_m, rank.beta) - model.B)) <= 1e-10


def test_classify_rank_degenerate_b():
    model = bb.BilinearModel(A=[[-1.0]], A_S=[[-1.0]], B=[[0.0]],
                             P=[[1.0]], Lambda=[1.0])
    with pytest.raises(bb.DegenerateB):
        bb.classify_rank(model)


def test_loads_model_round_trip():
    rng = rng0(8)
    model = random_model(rng, 2, 3)
    text = json.dumps(model.to_dict())
    back = bb.loads_model(text)
    for name in ("A", "A_S", "B", "P", "Lambda", "C"):
        assert getattr(back, name) == pytest.approx(getattr(model, name))


def test_loads_model_rejects_malformed():
    with pytest.raises(bb.ParseError):
        bb.loads_model("not json at all {")
    with pytest.raises(bb.ParseError):
        bb.loads_model(json.dumps({"m": 1, "n": 1}))


def test_loads_model_rejects_declared_shape_mismatch():
    doc = {"m": 2, "n": 1, "A": [[-1.0]], "A_S": [[-1.0]], "B": [[1.0]],
           "P": [[1.0]], "Lambda": [1.0]}
    with pytest.raises(bb.DimensionMismatch):
        bb.loads_model(json.dumps(doc))


def test_stochastic_builder_columns_sum_to_one():
    rng = rng0(9)
    P = random_stochastic_columns(rng, 4, 3)
    assert P.sum(axis=0) == pytest.approx(np.ones(3), abs=1e-12)


def _block_field(model, x):
    """The field block by block, as the model equations state it, together
    with the magnitude of the terms each entry sums."""
    S, I = model.split(x)
    bil = S * (I @ model.B.T)
    dS = model.Lambda + S @ model.A_S.T - bil + I @ model.C.T
    dI = bil @ model.P.T + I @ model.A.T
    size_S = model.Lambda + S @ np.abs(model.A_S).T + bil + I @ model.C.T
    size_I = bil @ model.P.T + I @ np.abs(model.A).T
    return (np.concatenate([dS, dI], axis=-1),
            np.concatenate([size_S, size_I], axis=-1))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("feedback", [False, True])
def test_fused_field_matches_block_formula(seed, feedback):
    # rhs sums the same terms as the block formula in another order, so the
    # two agree to a few roundings of the terms' magnitude.
    rng = rng0(seed)
    m, n = (int(k) for k in rng.integers(1, 5, size=2))
    model = random_model(rng, m, n, ("casep", "caseb", "general")[seed % 3])
    if feedback:
        model = bb.BilinearModel(A=model.A, A_S=model.A_S, B=model.B, P=model.P,
                                 Lambda=model.Lambda, C=feedback_C(model, rng))
    d = m + n
    for shape in [(d,), (6, d), (4, 6, d)]:
        x = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), size=shape))
        ref, size = _block_field(model, x)
        f = model.rhs(x)
        assert f.shape == shape
        tol = 4 * np.finfo(float).eps * np.maximum(1.0, size)
        assert np.all(np.abs(f - ref) <= tol), np.max(np.abs(f - ref) / tol)


def test_fused_field_operators_are_read_only(sir):
    for arr in (sir._c, sir._L, sir._Bt, sir._E):
        assert not arr.flags.writeable
