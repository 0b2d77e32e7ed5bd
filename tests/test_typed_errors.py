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
