"""The README exit-code contract: every failure ends in `error: …` and its
class's exit code, never in a traceback or a silent success."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bbepi import cli, crn, sim
from bbepi import equilibrium as eq
from bbepi import lyapunov as lyap
from bbepi.errors import AnalysisError, PositivityViolation
from test_cli import (GENERAL_RANK_JSON, NONDIAG_AS_JSON, NOT_HURWITZ_JSON,
                      SIR_JSON, SIRS_RXN, SUBTHRESHOLD_JSON)

FILES = {
    "sir.model": SIR_JSON,
    "sub.model": SUBTHRESHOLD_JSON,
    "general.model": GENERAL_RANK_JSON,
    "nondiag.model": NONDIAG_AS_JSON,
    "unstable.model": NOT_HURWITZ_JSON,
    "nan.model": SIR_JSON.replace("[[-1.0]], \"A_S\"", "[[NaN]], \"A_S\""),
    "inf.model": SIR_JSON.replace("[[2.0]]", "[[Infinity]]"),
    "neginf.model": SIR_JSON.replace("[1.0]}", "[-Infinity]}"),
    "huge.model": SIR_JSON.replace("[[2.0]]", "[[1e300]]"),
    "hugeinflow.model": SIR_JSON.replace("[1.0]}", "[1e308]}"),
    "sirs.rxn": SIRS_RXN,
    "bad.rxn": "s + i : 2.0\n",
    "quadratic.rxn": "-> s : 1.0\ns -> : 1.0\ns + i -> 2 i : 2.0\n2 i -> i : 1.0\n",
    "infrate.rxn": "-> s : 1.0\ns -> : inf\ns + i -> 2 i : 2.5\ni -> : 1.0\n",
}


@pytest.fixture
def inputs(tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def run(inputs, argv, capsys):
    """Run the CLI in-process; return (exit code, stderr)."""
    argv = [str(inputs / a) if a in FILES or a.endswith(".model") else a
            for a in argv]
    try:
        code = cli.main(argv + ["--out", str(inputs / "out")])
    except SystemExit as exc:  # argparse rejects a flag
        code = exc.code
    return code, capsys.readouterr().err


# (argv, exit code, a fragment of stderr)
CASES = {
    # Numeric flags are checked at parse time.
    "lyapunov --step 0": (["lyapunov", "sir.model", "--kind", "dfe", "--step", "0"],
                          2, "--step"),
    "lyapunov --trajectories 0": (["lyapunov", "sir.model", "--kind", "dfe",
                                   "--trajectories", "0"], 2, "--trajectories"),
    "lyapunov --horizon nan": (["lyapunov", "sir.model", "--kind", "dfe",
                                "--horizon", "nan"], 2, "--horizon"),
    "simulate --step 0": (["simulate", "sir.model", "--x0", "0.9,0.1", "--step", "0"],
                          2, "--step"),
    "simulate --horizon -5": (["simulate", "sir.model", "--x0", "0.9,0.1",
                               "--horizon", "-5"], 2, "--horizon"),
    "simulate --step -1": (["simulate", "sir.model", "--x0", "0.9,0.1", "--step", "-1",
                            "--horizon", "1"], 2, "--step"),
    "simulate --settle 0": (["simulate", "sir.model", "--x0", "0.9,0.1",
                             "--settle", "0"], 2, "--settle"),
    "siphons --horizon inf": (["siphons", "sirs.rxn", "--horizon", "inf"], 2,
                              "--horizon"),
    # Runs that would keep more than sim.MAX_SAMPLES states fail before
    # anything is allocated (ParseError).
    "simulate --horizon 1e300": (["simulate", "sir.model", "--x0", "1,1",
                                  "--horizon", "1e300"], 2, "MAX_SAMPLES"),
    "simulate --horizon 1e6": (["simulate", "sir.model", "--x0", "1,1",
                                "--horizon", "1e6"], 2, "1e+08 steps"),
    "simulate --step 1e-300": (["simulate", "sir.model", "--x0", "1,1",
                                "--step", "1e-300"], 2, "MAX_SAMPLES"),
    "lyapunov --trajectories 1e10": (["lyapunov", "sir.model", "--kind", "ee",
                                      "--trajectories", "10000000000"], 2,
                                     "from 10000000000 start(s)"),
    "lyapunov --horizon 1e300": (["lyapunov", "sir.model", "--kind", "dfe",
                                  "--horizon", "1e300"], 2, "MAX_SAMPLES"),
    "siphons --horizon 1e300": (["siphons", "sirs.rxn", "--horizon", "1e300"], 2,
                                "MAX_SAMPLES"),
    # Non-finite model entries are parse errors (ParseError).
    "analyze NaN": (["analyze", "nan.model"], 2, "non-finite entries"),
    "lyapunov Infinity": (["lyapunov", "inf.model", "--kind", "dfe"], 2, "non-finite"),
    "scan -Infinity": (["scan", "neginf.model", "--entry", "B[0,0]",
                        "--grid", "1:2:2"], 2, "non-finite"),
    "simulate NaN": (["simulate", "nan.model", "--x0", "0.9,0.1"], 2, "non-finite"),
    "lyapunov inf rate": (["lyapunov", "infrate.rxn", "--kind", "dfe"], 2,
                          "line 2: rate must be positive and finite"),
    # Argument shapes (ParseError).
    "simulate --x0 nan": (["simulate", "sir.model", "--x0=nan,0.5"], 2, "finite"),
    "simulate --x0 negative": (["simulate", "sir.model", "--x0=-0.5,0.5"], 2,
                               "nonnegative"),
    "simulate --x0 length": (["simulate", "sirs.rxn", "--x0", "0.5,0.5"], 2, "3 states"),
    "simulate --x0 text": (["simulate", "sir.model", "--x0", "a,b"], 2, "--x0"),
    "scan --entry shape": (["scan", "sir.model", "--entry", "B(0,0)",
                            "--grid", "0.5:3:4"], 2, "--entry"),
    "scan --entry range": (["scan", "sir.model", "--entry", "B[3,0]",
                            "--grid", "0.5:3:4"], 2, "out of range"),
    "scan --entry private": (["scan", "sir.model", "--entry", "_L[0,0]",
                              "--grid", "0.5:3:4"], 2, "unknown matrix '_L'"),
    "scan --entry vector": (["scan", "sir.model", "--entry", "Lambda[0,0]",
                             "--grid", "0.5:3:4"], 2, "vector"),
    "scan --grid": (["scan", "sir.model", "--entry", "B[0,0]", "--grid", "x"], 2,
                    "--grid"),
    "scan --grid count 0": (["scan", "sir.model", "--entry", "B[0,0]",
                             "--grid", "1:2:0"], 2, "--grid needs num >= 1"),
    # A grid over sim.MAX_SAMPLES points is refused before it is allocated;
    # 1e15 points (8 PB) exceed any address space, so the case cannot
    # exhaust memory if the refusal is ever lost.
    "scan --grid count 1e15": (["scan", "sir.model", "--entry", "B[0,0]",
                                "--grid", "0:1:1000000000000000"], 2,
                               "--grid needs num <= MAX_SAMPLES = 10,000,000"),
    "scan --grid -inf bound": (["scan", "sir.model", "--entry", "A[0,0]",
                                "--grid=-inf:-1:2"], 2, "--grid needs finite bounds"),
    "scan --grid inf bound": (["scan", "sir.model", "--entry", "B[0,0]",
                               "--grid", "0:inf:3"], 2, "--grid needs finite bounds"),
    "scan --grid nan bound": (["scan", "sir.model", "--entry", "B[0,0]",
                               "--grid", "nan:1:3"], 2, "--grid needs finite bounds"),
    "scan --grid overflowing span": (["scan", "sir.model", "--entry", "B[0,0]",
                                      "--grid=-1e308:1e308:3"], 2,
                                     "--grid needs finite bounds"),
    "lyapunov --seed -1": (["lyapunov", "sir.model", "--kind", "ee", "--seed", "-1"],
                           2, "--seed"),
    # Failed validation (InvalidModel), missing files (OSError), input
    # formats (ParseError, NotBalancedBilinear).
    "simulate invalid model": (["simulate", "unstable.model", "--x0", "0.5,0.5"], 2,
                               "A.hurwitz"),
    "lyapunov invalid model": (["lyapunov", "unstable.model", "--kind", "dfe"], 2,
                               "A.hurwitz"),
    "scan invalid point": (["scan", "sir.model", "--entry", "B[0,0]", "--grid", "0:1:3"],
                           2, "model invalid at B[0,0]=0.0: B.nonzero"),
    "analyze missing file": (["analyze", "absent.model"], 2, "No such file"),
    "siphons parse error": (["siphons", "bad.rxn"], 2, "line 1"),
    "analyze not bilinear": (["analyze", "quadratic.rxn"], 2, "not balanced bilinear"),
    "analyze --i-species unknown": (["analyze", "sirs.rxn", "--i-species", "q"], 2,
                                    "'q' not in the network"),
    # Hypotheses (NotApplicable, NotRankOne, BelowThreshold).
    "lyapunov ee below threshold": (["lyapunov", "sub.model", "--kind", "ee"], 4,
                                    "no endemic point"),
    "lyapunov ee general rank": (["lyapunov", "general.model", "--kind", "ee"], 4,
                                 "rank-one"),
    "lyapunov dfe non-diagonal A_S": (["lyapunov", "nondiag.model", "--kind", "dfe"],
                                      4, "diagonal"),
    "scan general rank": (["scan", "general.model", "--entry", "B[0,0]",
                           "--grid", "0.5:1.5:3"], 4, "shared routing"),
    # An overflowing R0 fails its scan point with a typed error, not warnings.
    "scan overflowing point": (["scan", "sir.model", "--entry", "Lambda[0]",
                                "--grid", "1:1e308:2"], 3,
                               "amplitude law is not finite"),
    # Starts sampled around an S0 near the float limit overflow before any step.
    "lyapunov overflowing start": (["lyapunov", "hugeinflow.model", "--kind", "dfe"],
                                   3, "a sampled start is not finite"),
    # An overflowing field is an integration failure, not a NaN trajectory.
    "simulate overflow": (["simulate", "huge.model", "--x0", "0.5,0.5",
                           "--horizon", "1"], 3, "state is not finite"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_input_case_exit_code(inputs, capsys, case):
    argv, code, fragment = CASES[case]
    with np.errstate(all="ignore"):
        got, err = run(inputs, argv, capsys)
    assert got == code, err
    assert fragment in err
    assert "Traceback" not in err


def test_scan_keeps_the_row_of_a_point_whose_R0_overflows(inputs, capsys):
    with np.errstate(all="ignore"):
        code, err = run(inputs, ["scan", "sir.model", "--entry", "Lambda[0]",
                                 "--grid", "1:1e308:2"], capsys)
    assert code == 3 and err.startswith("error: ") and "Traceback" not in err
    lines = (inputs / "out" / "scan.csv").read_text().splitlines()
    assert lines[0] == "param,R0,num_roots,backward,k1,saddle1,note"
    assert lines[1].startswith("1.0,2.0,1,false,")
    assert lines[2].startswith("1e+308,,,,,,\"NonFiniteValue: ")
    assert len(lines) == 3


OVERFLOWS = {  # argv, the one line stderr holds
    "analyze": (["analyze", "hugeinflow.model"],
                "error: amplitude law is not finite (overflow in its pencil)\n"),
    "lyapunov": (["lyapunov", "hugeinflow.model", "--kind", "dfe"],
                 "error: a sampled start is not finite (overflow)\n"),
    "simulate": (["simulate", "sir.model", "--x0", "1e308,1e308", "--horizon", "1"],
                 "error: state is not finite (overflow)\n"),
    "simulate --adaptive": (["simulate", "sir.model", "--x0", "1e308,1e308",
                             "--horizon", "1", "--adaptive"],
                            "error: vector field is not finite (overflow)\n"),
    "scan": (["scan", "sir.model", "--entry", "Lambda[0]", "--grid", "1:1e308:2"],
             "error: amplitude law is not finite (overflow in its pencil)\n"),
}


@pytest.mark.parametrize("case", list(OVERFLOWS))
def test_overflow_leaves_one_error_line_on_stderr(inputs, capsys, case):
    argv, message = OVERFLOWS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would escape main
        code, err = run(inputs, argv, capsys)
    assert code == 3
    assert err == message


def _error_classes(cls=AnalysisError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


ERROR_CLASSES = sorted({AnalysisError, *_error_classes()}, key=lambda c: c.__name__)

# Each subcommand's central library call, and the argv that reaches it.
SUBCOMMANDS = {
    "analyze": ((cli, "_solve_endemic"), ["analyze", "sir.model"]),
    "lyapunov": ((lyap, "verify_decrease"), ["lyapunov", "sir.model", "--kind", "ee"]),
    "scan": ((eq, "feedback_analysis"), ["scan", "sir.model", "--entry", "B[0,0]",
                                         "--grid", "1:2:2"]),
    "siphons": ((crn, "minimal_siphons"), ["siphons", "sirs.rxn"]),
    "simulate": ((sim, "integrate"), ["simulate", "sir.model", "--x0", "0.9,0.1"]),
}


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_error_class_exit_code(inputs, capsys, monkeypatch, command, error):
    (module, name), argv = SUBCOMMANDS[command]

    def fail(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(module, name, fail)
    code, err = run(inputs, argv, capsys)
    assert code == error.exit_code
    assert err == "error: injected failure\n"


def test_siphons_face_failure_keeps_its_class_and_names_the_face(
        inputs, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise PositivityViolation("left the orthant")

    monkeypatch.setattr(sim, "integrate", fail)
    code, err = run(inputs, ["siphons", "sirs.rxn"], capsys)
    assert code == PositivityViolation.exit_code
    assert err == "error: settling the face of {i}: left the orthant\n"


# ---------------------------------------------------------------- fuzz

ODD = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 1e300, -1e300,
                       "x", None, [1.0]])


@st.composite
def model_documents(draw):
    """A valid model bundle with up to three entries, sizes or keys spoiled."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))

    def unit(rows, cols):
        return np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=rows * cols,
                                      max_size=rows * cols))).reshape(rows, cols)

    def metzler_hurwitz(k):
        M = 0.3 * unit(k, k)
        M[np.diag_indices(k)] = -(M.sum(axis=1) + 0.2 + unit(1, k)[0])
        return M.tolist()

    P = unit(n, m) + 0.01
    doc = {"m": m, "n": n, "A": metzler_hurwitz(n), "A_S": metzler_hurwitz(m),
           "B": unit(m, n).tolist(), "P": (P / P.sum(axis=0)).tolist(),
           "Lambda": unit(1, m)[0].tolist()}
    if draw(st.booleans()):
        doc["C"] = (0.2 * unit(m, n)).tolist()
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(doc)))
        value = doc[key]
        if key in ("m", "n"):
            doc[key] = draw(st.sampled_from([0, 1, 3, 1.5, "2"]))
        elif not isinstance(value, list) or draw(st.integers(0, 4)) == 0:
            doc[key] = draw(ODD)
        else:
            i = draw(st.integers(0, len(value) - 1))
            if isinstance(value[i], list):
                value, i = value[i], draw(st.integers(0, len(value[i]) - 1))
            value[i] = draw(st.one_of(ODD, st.floats(-5.0, 5.0)))
    return doc


@settings(max_examples=50, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@example(json.loads(SIR_JSON.replace("[[-1.0]], \"A_S\"", "[[NaN]], \"A_S\"")))
@example(json.loads(SIR_JSON.replace("[1.0]}", "[-Infinity]}")))
@given(model_documents())
def test_model_fuzz_only_exits_with_a_contract_code(inputs, capsys, doc):
    path = inputs / "fuzz.model"
    path.write_text(json.dumps(doc))
    d = doc["m"] + doc["n"] if all(isinstance(doc[k], int) for k in "mn") else 2
    for argv in (["analyze", "fuzz.model"],
                 ["scan", "fuzz.model", "--entry", "B[0,0]", "--grid", "0.5:0.5:1"],
                 ["simulate", "fuzz.model", "--x0", ",".join(["0.5"] * d),
                  "--horizon", "0.5", "--step", "0.05"]):
        with np.errstate(all="ignore"):
            code, err = run(inputs, argv, capsys)
        assert code in (0, 1, 2, 3, 4), err
        assert code == 0 or err.startswith("error: "), err
