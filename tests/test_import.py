"""The package, its CLI and the reaction-network commands run on numpy alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bbepi as bb
from test_cli import SIR_JSON

SRC = Path(__file__).resolve().parents[1] / "src"

SIRS_DEMOGRAPHY = """species: s i r
-> s : 1.0
s -> : 1.0
i -> : 1.0
r -> : 1.0
s + i -> 2 i : 2.5
i -> r : 1.5
r -> s : 0.5
"""


def _python(code: str) -> subprocess.CompletedProcess:
    """Run `code`, after `import sys`, in a fresh interpreter that imports src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env,
                          capture_output=True, text=True, timeout=120)


def _scipy_modules_after(code: str) -> str:
    """Run `code` in a fresh interpreter; print the scipy modules it loaded."""
    code += "\nprint(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
    out = _python(code)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import bbepi\nimport bbepi.cli") == "[]"


@pytest.mark.parametrize("command", ["siphons", "analyze"])
def test_reaction_file_commands_load_no_scipy(tmp_path, command):
    path = tmp_path / "sirs.rxn"
    path.write_text(SIRS_DEMOGRAPHY)
    argv = [command, str(path), "--out", str(tmp_path / "out")]
    code = f"from bbepi import cli\nassert cli.main({argv!r}) == 0"
    assert _scipy_modules_after(code) == "[]"
    assert any((tmp_path / "out").iterdir())


# A meta-path finder that makes every scipy import fail, as on an install
# without scipy.
BLOCK_SCIPY = """
class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, _NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    raise SystemExit("scipy is still importable")
"""

# Each subcommand with the exit code README gives its outcome: R0 = 2, so
# the endemic certificate holds (0) and the disease-free one fails (1).
NO_SCIPY_RUNS = {
    "analyze": (["analyze", "sir.model"], 0),
    "lyapunov ee": (["lyapunov", "sir.model", "--kind", "ee", "--trajectories", "2",
                     "--horizon", "20"], 0),
    "lyapunov dfe": (["lyapunov", "sir.model", "--kind", "dfe", "--trajectories", "2",
                      "--horizon", "20"], 1),
    "scan": (["scan", "sir.model", "--entry", "B[0,0]", "--grid", "0.5:3:6"], 0),
    "siphons": (["siphons", "sirs.rxn"], 0),
    "simulate": (["simulate", "sirs.rxn", "--x0", "0.9,0.1,0", "--horizon", "5"], 0),
}


@pytest.mark.parametrize("run", list(NO_SCIPY_RUNS))
def test_subcommands_run_without_scipy(tmp_path, run):
    argv, code = NO_SCIPY_RUNS[run]
    (tmp_path / "sir.model").write_text(SIR_JSON)
    (tmp_path / "sirs.rxn").write_text(SIRS_DEMOGRAPHY)
    argv = [str(tmp_path / a) if a in ("sir.model", "sirs.rxn") else a for a in argv]
    argv += ["--out", str(tmp_path / "out")]
    out = _python(BLOCK_SCIPY + f"from bbepi import cli\nsys.exit(cli.main({argv!r}))\n")
    assert out.returncode == code, out.stderr
    assert out.stderr == ""
    assert any((tmp_path / "out").iterdir())


def test_reaction_network_arrays_are_read_only():
    net = bb.parse_reactions(SIRS_DEMOGRAPHY)
    for arr in (net.source_matrix, net.output_matrix, net.Gamma):
        with pytest.raises(ValueError):
            arr[0, 0] = 5.0
    assert np.array_equal(net.Gamma, net.output_matrix - net.source_matrix)


def _import_time_nodes(tree):
    """Statements that run at import: everything outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def test_library_has_no_module_level_scipy_import():
    found = []
    for path in sorted((SRC / "bbepi").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _import_time_nodes(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"module-level scipy imports in src/bbepi: {found}"
