"""End-to-end command-line runs, exit codes, and output determinism."""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from bbepi import IdentityViolation
from bbepi import equilibrium as eq
from bbepi import lyapunov as lyap
from bbepi.cli import build_parser, main
from test_crn import random_network

SIR_JSON = json.dumps({
    "m": 1, "n": 1,
    "A": [[-1.0]], "A_S": [[-1.0]],
    "B": [[2.0]], "P": [[1.0]],
    "Lambda": [1.0],
})

SUBTHRESHOLD_JSON = json.dumps({
    "m": 1, "n": 1,
    "A": [[-1.0]], "A_S": [[-1.0]],
    "B": [[0.5]], "P": [[1.0]],
    "Lambda": [1.0],
})

BAD_P_JSON = json.dumps({
    "m": 1, "n": 1,
    "A": [[-1.0]], "A_S": [[-1.0]],
    "B": [[2.0]], "P": [[0.9]],
    "Lambda": [1.0],
})

NONDIAG_AS_JSON = json.dumps({
    "m": 2, "n": 1,
    "A": [[-1.0]], "A_S": [[-1.0, 0.4], [0.3, -1.0]],
    "B": [[0.2], [0.2]], "P": [[1.0, 1.0]],
    "Lambda": [0.5, 0.5],
})

GENERAL_RANK_JSON = json.dumps({
    "m": 2, "n": 2,
    "A": [[-2.0, 0.3], [0.4, -3.0]],
    "A_S": [[-1.0, 0.0], [0.0, -1.5]],
    "B": [[3.0, 0.4], [0.5, 2.0]],
    "P": [[0.7, 0.2], [0.3, 0.8]],
    "Lambda": [1.0, 0.8],
})

REDUCIBLE_GAIN_JSON = json.dumps({
    "m": 2, "n": 2,
    "A": [[-1.0, 0.0], [0.0, -2.0]],
    "A_S": [[-1.0, 0.0], [0.0, -1.0]],
    "B": [[3.0, 0.0], [0.0, 1.0]],
    "P": [[1.0, 0.0], [0.0, 1.0]],
    "Lambda": [1.0, 1.0],
})

NOT_HURWITZ_JSON = json.dumps({
    "m": 1, "n": 1,
    "A": [[0.5]], "A_S": [[-1.0]],
    "B": [[0.5]], "P": [[1.0]],
    "Lambda": [1.0],
})

SIRS_RXN = """
species: s i r
-> s : 1.0
s -> : 1.0
i -> : 1.0
r -> : 1.0
s + i -> 2 i : 2.5
i -> r : 1.5
r -> s : 0.5
"""


@pytest.fixture
def sir_path(tmp_path):
    p = tmp_path / "sir.model"
    p.write_text(SIR_JSON)
    return p


@pytest.fixture
def rxn_path(tmp_path):
    p = tmp_path / "sirs.rxn"
    p.write_text(SIRS_RXN)
    return p


def write_model(tmp_path, text, name="m.model"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------- analyze

def test_analyze_sir_report(tmp_path, sir_path, capsys):
    rc = main(["analyze", str(sir_path), "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "analysis.txt").read_text()
    assert "R0: 2.0" in text
    assert "above threshold: true" in text
    doc = json.loads((tmp_path / "analysis.json").read_text())
    assert doc["equilibrium"]["R0"] == 2.0
    ee = doc["equilibrium"]["endemic_points"][0]
    assert ee["S_bar"] == pytest.approx([0.5], abs=1e-10)
    assert ee["I_bar"] == pytest.approx([0.5], abs=1e-10)
    assert ee["k"] == pytest.approx(0.5, abs=1e-10)
    det = doc["determinant_law"]
    assert det["det_J_dfe"] == pytest.approx(-1.0, abs=1e-10)
    assert det["det_J_ee"] == pytest.approx(1.0, abs=1e-10)
    assert det["holds"] is True


def test_analyze_invalid_model_exits_2(tmp_path, capsys):
    path = write_model(tmp_path, BAD_P_JSON)
    rc = main(["analyze", str(path), "--out", str(tmp_path)])
    assert rc == 2
    text = (tmp_path / "analysis.txt").read_text()
    assert "P.column_stochastic: fail" in text


def test_analyze_reaction_input(tmp_path, rxn_path):
    rc = main(["analyze", str(rxn_path), "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "analysis.json").read_text())
    assert doc["equilibrium"]["R0"] == pytest.approx(1.0, abs=1e-12)
    assert doc["structure"]["m"] == 2 and doc["structure"]["n"] == 1


def test_analyze_general_rank_spectral_path(tmp_path):
    path = write_model(tmp_path, GENERAL_RANK_JSON)
    rc = main(["analyze", str(path), "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "analysis.json").read_text())
    assert doc["structure"]["rank"]["tag"] == "General"
    if doc["equilibrium"]["R0"] > 1.0:
        assert len(doc["equilibrium"]["endemic_points"]) >= 1


def test_analyze_reducible_gain_reports_no_solver(tmp_path):
    path = write_model(tmp_path, REDUCIBLE_GAIN_JSON)
    rc = main(["analyze", str(path), "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "analysis.txt").read_text()
    assert "solver: none" in text
    assert "reducible" in text
    doc = json.loads((tmp_path / "analysis.json").read_text())
    assert doc["equilibrium"]["solver"] == "none"
    assert doc["equilibrium"]["endemic_points"] == []


def test_analyze_failed_identity_exits_3(tmp_path, sir_path, capsys, monkeypatch):
    monkeypatch.setattr(eq, "NORMALIZATION_TOL", -1.0)
    rc = main(["analyze", str(sir_path), "--out", str(tmp_path)])
    assert rc == 3
    assert "normalization" in capsys.readouterr().err


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "absent.model"), "--out", str(tmp_path)])
    assert rc == 2


def test_analyze_outputs_are_byte_deterministic(tmp_path, sir_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", str(sir_path), "--out", str(out1)]) == 0
    assert main(["analyze", str(sir_path), "--out", str(out2)]) == 0
    assert (out1 / "analysis.txt").read_bytes() == (out2 / "analysis.txt").read_bytes()
    assert (out1 / "analysis.json").read_bytes() == (out2 / "analysis.json").read_bytes()


# ---------------------------------------------------------------- lyapunov

def test_lyapunov_dfe_subthreshold_verdict_true(tmp_path, capsys):
    path = write_model(tmp_path, SUBTHRESHOLD_JSON)
    rc = main(["lyapunov", str(path), "--kind", "dfe", "--out", str(tmp_path),
               "--trajectories", "5", "--horizon", "60"])
    assert rc == 0
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert doc["kind"] == "dfe"
    assert doc["verdict"] is True
    assert doc["convergence_fraction"] == 1.0
    trace = (tmp_path / "certificate.csv").read_text().splitlines()
    assert trace[0] == "t,V,V_dot"
    all_csv = (tmp_path / "certificate_all.csv").read_text().splitlines()
    assert all_csv[0] == "trajectory,t,V,V_dot"


def test_lyapunov_ee_verdict_true(tmp_path, sir_path):
    rc = main(["lyapunov", str(sir_path), "--kind", "ee", "--out", str(tmp_path),
               "--trajectories", "5", "--horizon", "120"])
    assert rc == 0
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert doc["verdict"] is True


def test_lyapunov_dfe_above_threshold_verdict_false(tmp_path, sir_path, capsys):
    # The disease-free potential increases along invading trajectories.
    rc = main(["lyapunov", str(sir_path), "--kind", "dfe", "--out", str(tmp_path),
               "--trajectories", "5", "--horizon", "20"])
    assert rc == 1
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert doc["verdict"] is False


def test_lyapunov_ee_below_threshold_exits_4(tmp_path, capsys):
    path = write_model(tmp_path, SUBTHRESHOLD_JSON)
    rc = main(["lyapunov", str(path), "--kind", "ee", "--out", str(tmp_path)])
    assert rc == 4


def test_lyapunov_nondiagonal_susceptible_block_exits_4(tmp_path, capsys):
    path = write_model(tmp_path, NONDIAG_AS_JSON)
    rc = main(["lyapunov", str(path), "--kind", "dfe", "--out", str(tmp_path)])
    assert rc == 4


def test_lyapunov_ee_on_general_rank_exits_4(tmp_path, capsys):
    path = write_model(tmp_path, GENERAL_RANK_JSON)
    rc = main(["lyapunov", str(path), "--kind", "ee", "--out", str(tmp_path)])
    assert rc == 4
    assert "rank-one" in capsys.readouterr().err


def test_lyapunov_not_hurwitz_exits_2(tmp_path, capsys):
    path = write_model(tmp_path, NOT_HURWITZ_JSON)
    rc = main(["lyapunov", str(path), "--kind", "dfe", "--out", str(tmp_path)])
    assert rc == 2
    assert "A.hurwitz" in capsys.readouterr().err


def test_lyapunov_failed_identity_exits_3(tmp_path, sir_path, capsys, monkeypatch):
    monkeypatch.setattr(lyap, "WEIGHT_TOL", -1.0)
    rc = main(["lyapunov", str(sir_path), "--kind", "ee", "--out", str(tmp_path),
               "--trajectories", "2", "--horizon", "1"])
    assert rc == 3
    assert "identity" in capsys.readouterr().err


# ---------------------------------------------------------------- scan

def test_scan_roots_track_threshold(tmp_path, sir_path, capsys):
    rc = main(["scan", str(sir_path), "--entry", "B[0,0]",
               "--grid", "0.5:3.0:6", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert lines[0].startswith("param,R0,num_roots,backward")
    for row in lines[1:]:
        cells = row.split(",")
        beta, R0, num_roots = float(cells[0]), float(cells[1]), int(cells[2])
        assert R0 == pytest.approx(beta, abs=1e-12)  # R0 = beta here
        assert num_roots == (1 if R0 > 1.0 else 0)
        if num_roots == 1:
            # Endemic force scale for this family: k = 1 - 1/beta.
            assert float(cells[4]) == pytest.approx(1.0 - 1.0 / beta, rel=1e-9)


def test_scan_rejects_bad_grid_and_entry(tmp_path, sir_path, capsys):
    assert main(["scan", str(sir_path), "--entry", "B[0,0]",
                 "--grid", "nonsense", "--out", str(tmp_path)]) == 2
    assert main(["scan", str(sir_path), "--entry", "B(0,0)",
                 "--grid", "0.5:3.0:4", "--out", str(tmp_path)]) == 2


def test_scan_general_rank_exits_4(tmp_path, capsys):
    # The feedback sweep is defined for shared-routing models only; a
    # general-rank model violates the sweep's hypothesis.
    path = write_model(tmp_path, GENERAL_RANK_JSON)
    rc = main(["scan", str(path), "--entry", "B[0,0]",
               "--grid", "0.5:1.5:3", "--out", str(tmp_path)])
    assert rc == 4


def test_scan_keeps_the_sweep_when_one_point_fails(tmp_path, capsys):
    # SIS with no infected death: at B = 1 both R0 = 1 and H(inf) = 1, so
    # the amplitude law is identically 1 and its solve fails; the points on
    # either side are still reported.
    path = write_model(tmp_path, json.dumps({
        "m": 1, "n": 1, "A": [[-1]], "A_S": [[-0.1]], "B": [[3]], "P": [[1]],
        "Lambda": [0.1], "C": [[1]]}))
    rc = main(["scan", str(path), "--entry", "B[0,0]",
               "--grid", "0.5:1.5:3", "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == "error: amplitude law is degenerate: k = 0 and k = infinity both solve it\n"
    assert (tmp_path / "scan.csv").read_text() == (
        "param,R0,num_roots,backward,note\n"
        "0.5,0.5,0,false,\n"
        '1.0,1.0,,,"NoConvergence: amplitude law is degenerate: '
        'k = 0 and k = infinity both solve it"\n'
        "1.5,1.5,0,false,\n")


def test_scan_failed_point_row_keeps_the_root_columns(tmp_path, sir_path, capsys,
                                                    monkeypatch):
    solve = eq.feedback_analysis

    def failing_at_two(model, rank):
        if model.B[0, 0] == 2.0:
            raise IdentityViolation('injected, "quoted"')
        return solve(model, rank)

    monkeypatch.setattr(eq, "feedback_analysis", failing_at_two)
    rc = main(["scan", str(sir_path), "--entry", "B[0,0]",
               "--grid", "1.5:2.5:3", "--out", str(tmp_path)])
    assert rc == 3
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "param,R0,num_roots,backward,k1,saddle1,note"
    assert lines[1].startswith("1.5,1.5,1,false,") and lines[1].endswith(",false,")
    assert lines[2] == '2.0,2.0,,,,,"IdentityViolation: injected, ""quoted"""'
    assert lines[3].startswith("2.5,2.5,1,false,")


def test_scan_hypothesis_failure_writes_no_file(tmp_path, capsys):
    path = write_model(tmp_path, GENERAL_RANK_JSON)
    out = tmp_path / "out"
    assert main(["scan", str(path), "--entry", "B[0,0]",
                 "--grid", "0.5:1.5:3", "--out", str(out)]) == 4
    assert not (out / "scan.csv").exists()


# ---------------------------------------------------------------- siphons

def test_siphons_reaction_network(tmp_path, rxn_path, capsys):
    rc = main(["siphons", str(rxn_path), "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "siphons.json").read_text())
    minimal = doc["minimal_siphons"]
    assert [s["species"] for s in minimal] == [["i"]]
    assert minimal[0]["critical"] is True
    assert doc["total_siphon"] == ["i"]
    assert doc["dfe_closure"] == ["i", "r"]
    text = (tmp_path / "siphons.txt").read_text()
    assert "minimal siphons" in text


def test_siphons_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.rxn"
    bad.write_text("s + i : 2.0\n")
    rc = main(["siphons", str(bad), "--out", str(tmp_path)])
    assert rc == 2


def write_random16(tmp_path):
    """A 16-species random network whose two siphon faces leave the orthant
    while settling, as a reaction file."""
    net = random_network(np.random.default_rng(16), 16, 32)

    def side(v):
        return " + ".join((f"{int(c)} " if c > 1 else "") + net.species[i]
                          for i, c in enumerate(v) if c > 0)

    lines = ["species: " + " ".join(net.species)]
    lines += [f"{side(r.source)} -> {side(r.output)} : {r.rate_constant!r}"
              for r in net.reactions]
    path = tmp_path / "random16.rxn"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_siphons_face_leaving_orthant_exits_3(tmp_path, capsys):
    rc = main(["siphons", str(write_random16(tmp_path)), "--out", str(tmp_path)])
    assert rc == 3
    assert "orthant" in capsys.readouterr().err


def test_siphons_failed_faces_keep_the_report(tmp_path, capsys):
    # Each failed face keeps its entry and the run still exits 3 after
    # writing both files.
    rc = main(["siphons", str(write_random16(tmp_path)), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "failed faces: 2" in captured.out
    assert captured.err.startswith("error: settling the face of {x1}: ")
    faces = json.loads((tmp_path / "siphons.json").read_text())["face_blocks"]
    assert [f["siphon"] for f in faces] == [["x1"], ["x11"]]
    text = (tmp_path / "siphons.txt").read_text()
    for face, name in zip(faces, ("{x1}", "{x11}")):
        assert face["found"] is False
        assert face["error"].startswith(f"settling the face of {name}: ")
        assert "orthant" in face["error"]
        assert f"  {name}: {face['error']}" in text


@pytest.mark.parametrize("argv", [
    ["analyze", "m.model", "--seed", "1"],
    ["scan", "m.model", "--entry", "B[0,0]", "--grid", "1:2:2", "--seed", "1"],
    ["simulate", "m.model", "--x0", "1,0", "--i-species", "i"],
    ["simulate", "m.model", "--x0", "1,0", "--seed", "1"],
    ["siphons", "n.rxn", "--input-format", "rxn"],
    ["siphons", "n.rxn", "--i-species", "i"],
    ["siphons", "n.rxn", "--seed", "1"],
    ["analyze", "m.model", "--tol-hurwitz", "1e-6"],
])
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_command_line_section_names_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    missing = sorted({(name, flag)
                      for name, parser in subparsers.choices.items()
                      for action in parser._actions
                      for flag in action.option_strings
                      if flag.startswith("--") and flag != "--help"
                      and flag not in section})
    assert not missing


# ---------------------------------------------------------------- simulate

def test_simulate_reaction_network_csv(tmp_path, rxn_path):
    rc = main(["simulate", str(rxn_path), "--x0", "0.9,0.1,0.0",
               "--horizon", "5", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,s,i,r"
    first = [float(v) for v in lines[1].split(",")]
    assert first == pytest.approx([0.0, 0.9, 0.1, 0.0])


def test_simulate_model_input_names_blocks(tmp_path, sir_path):
    rc = main(["simulate", str(sir_path), "--x0", "0.9,0.1",
               "--horizon", "2", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,S1,I1"


def test_simulate_dimension_mismatch_exits_2(tmp_path, sir_path, capsys):
    rc = main(["simulate", str(sir_path), "--x0", "0.9,0.1,0.3",
               "--horizon", "2", "--out", str(tmp_path)])
    assert rc == 2


def test_simulate_is_byte_deterministic(tmp_path, rxn_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", str(rxn_path), "--x0", "0.9,0.1,0.0", "--horizon", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == \
        (out2 / "trajectory.csv").read_bytes()
