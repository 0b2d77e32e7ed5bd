"""Library checks raise typed errors, and hold under `python -O` too."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_library_has_no_assert_statements():
    # Asserts vanish under python -O; every library check must raise an
    # AnalysisError instead.
    found = []
    for path in sorted((SRC / "bbepi").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/bbepi: {found}"


def test_only_the_model_inverts_its_matrices():
    # (-A)^{-1} and (-A_S)^{-1} are computed once per model, by its cached
    # S0 and Ainv; a call of m_inverse anywhere else inverts again per call.
    found = []
    for path in sorted((SRC / "bbepi").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and "m_inverse" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))]
    assert found and all(f.startswith("model.py:") for f in found), found


LAPACK_CALLS = {"eigvals", "eig", "solve", "inv", "svd", "det", "cond"}


def test_only_spectral_calls_lapack():
    # spectral's kernels call numpy's LAPACK gufuncs directly, at a fraction
    # of np.linalg's wrapper cost, and raise typed errors; a np.linalg call
    # anywhere else pays the wrapper and raises a bare LinAlgError.
    calls, imports = [], []
    for path in sorted((SRC / "bbepi").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in LAPACK_CALLS \
                    and "linalg" in ast.unparse(node.func.value).split("."):
                calls.append(f"{path.name}:{node.lineno}")
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "linalg" in name for name in
                    [getattr(node, "module", None) or ""]
                    + [alias.name for alias in node.names]):
                imports.append(f"{path.name}: {ast.unparse(node)}")
    assert not [c for c in calls if not c.startswith("spectral.py:")], calls
    assert imports == ["spectral.py: from numpy.linalg import _umath_linalg"], imports


def test_m_inverse_sign_check_survives_optimized_mode():
    code = ("import numpy as np, bbepi as bb\n"
            "try:\n"
            "    bb.m_inverse(np.array([[0.5]]))\n"
            "except bb.SingularMatrix as exc:\n"
            "    print('SingularMatrix:', exc)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("SingularMatrix:"), out.stdout


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_carries_a_contract_exit_code():
    import bbepi
    classes = [bbepi.AnalysisError, *_subclasses(bbepi.AnalysisError)]
    codes = {cls.__name__: cls.exit_code for cls in classes}
    assert set(codes.values()) <= {2, 3, 4}, codes
    assert codes["AnalysisError"] == 3 and codes["ParseError"] == 2 \
        and codes["NotApplicable"] == 4


def test_every_error_class_is_raised_somewhere():
    # A class no library code raises is dead API; it must not linger.
    import bbepi
    raised = set()
    for path in sorted((SRC / "bbepi").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    never = sorted(cls.__name__ for cls in _subclasses(bbepi.AnalysisError)
                   if cls.__name__ not in raised)
    assert not never, f"error classes raised nowhere in src/bbepi: {never}"


def test_only_cli_main_turns_an_exception_into_an_exit_code():
    # Every other handler in cli.py turns an error into a report line, a
    # typed error or a (law, report) pair, never into a return code.
    tree = ast.parse((SRC / "bbepi" / "cli.py").read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    main = next(f for f in functions if f.name == "main")
    main_handlers = [h for h in ast.walk(main) if isinstance(h, ast.ExceptHandler)]
    assert len(main_handlers) == 1
    found = []
    for func in functions:
        if func is main:
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and node.attr == "exit_code":
                found.append(f"{func.name}:{node.lineno} reads exit_code")
            if isinstance(node, ast.ExceptHandler):
                found += [f"{func.name}:{ret.lineno} returns from a handler"
                          for ret in ast.walk(node) if isinstance(ret, ast.Return)
                          and not isinstance(ret.value, ast.Tuple)]
    assert not found, found
