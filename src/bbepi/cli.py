"""Command-line front end: reproducible analysis runs with file outputs.

Subcommands
-----------
analyze   validate, classify, and solve a model end to end; writes
          analysis.txt (human) and analysis.json (structured).
lyapunov  sample trajectories and audit a decrease certificate; writes
          certificate.json plus certificate.csv / certificate_all.csv.
scan      sweep one scalar matrix entry and tabulate the endemic amplitude
          roots per grid point; writes scan.csv (a point whose solver
          fails keeps its row, with a note).
siphons   enumerate minimal siphons of a reaction network, with face
          Jacobian blocks where a face equilibrium is found; writes
          siphons.txt and siphons.json (a face whose settling fails keeps
          its entry, with the error).
simulate  integrate one trajectory; writes trajectory.csv.

Inputs are either a matrix-bundle JSON file (extension .model or .json) or
a reaction text file (.rxn); --input-format overrides the extension guess
(siphons reads reaction files only).
Exit codes: 0 success (and true verdicts), 1 certificate verdict false, and
otherwise the ``exit_code`` of the AnalysisError that ended the run (see
bbepi.errors): 2 parse, shape or validation failure (bad flags and
unreadable files too), 3 solver non-convergence, integration failure or a
failed numerical identity, 4 model outside a method's hypotheses. Only main
turns an error into an exit code. All outputs are deterministic for a fixed
input and seed: floats are written via repr and no timestamps appear.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import crn, ngm, sim, spectral
from . import equilibrium as eq
from . import lyapunov as lyap
from .errors import (AnalysisError, BelowThreshold, InvalidModel,
                     NonFiniteValue, NotApplicable, NotEquilibrium, NotRankOne,
                     ParseError, PositivityViolation, StepUnderflow,
                     is_solver_failure)
from .model import (BilinearModel, RankTag, classify_rank, load_model,
                    validate_accessibility, validate_model)

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_VALIDATION = 2

_ENTRY_RE = re.compile(r"^([A-Za-z_]+)\[(\d+)(?:\s*,\s*(\d+))?\]$")


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_vec(v) -> str:
    return "[" + ", ".join(_fmt(x) for x in np.asarray(v).ravel()) + "]"


def _fmt_mat(M) -> str:
    M = np.asarray(M)
    if M.ndim == 1:
        return _fmt_vec(M)
    return "[" + "; ".join(_fmt_vec(row) for row in M) + "]"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text, encoding="utf-8")


def _input_format(args) -> str:
    return args.input_format or ("rxn" if args.input.endswith(".rxn") else "model")


def _load_any(args):
    """Load the model in args.input, in either input format.

    Returns (model, state_names, split_dict) where state_names follow the
    model's stacked (S, I) coordinate order and split_dict is None for
    matrix-bundle inputs.
    """
    if _input_format(args) == "rxn":
        net = crn.load_reactions(args.input)
        override = tuple(args.i_species.split(",")) if args.i_species else None
        model, split = crn.network_to_bilinear(net, i_species=override)
        names = list(split.s_species) + list(split.i_species)
        return model, names, split.to_dict()
    model = load_model(args.input)
    names = [f"S{i + 1}" for i in range(model.m)] + \
            [f"I{j + 1}" for j in range(model.n)]
    return model, names, None


def _require_valid(validation, where: str = "validation failed") -> None:
    """Raise InvalidModel naming the failed checks of a validation report."""
    if not validation.passed:
        raise InvalidModel(f"{where}: " +
                           "; ".join(c.name for c in validation.failures()))


def _solve_endemic(model: BilinearModel, rank) -> tuple:
    """Run the applicable endemic solver. Returns (law_or_None, report)."""
    if np.any(model.C != 0.0):
        if rank.alpha_n is not None:
            return eq.feedback_analysis(model, rank)
        note = ("recovery feedback present but routing is not shared "
                "across classes; no endemic solver applies")
    elif rank.tag is not RankTag.GENERAL:
        return None, eq.endemic_rank_one(model, rank)
    else:
        try:
            return None, eq.endemic_spectral(model)
        except NotApplicable as exc:
            note = f"spectral solver not applicable: {exc}"
    return None, eq.EquilibriumReport(S0=eq.dfe(model), R0=eq.reproduction_number(model),
                                      solver="none", notes=[note])


def cmd_analyze(args) -> int:
    out_dir = Path(args.out)
    model, names, split = _load_any(args)

    validation = validate_model(model)
    access = validate_accessibility(model)
    lines = ["balanced bilinear model analysis", f"input: {args.input}", ""]
    lines.append("[validation]")
    for c in validation.checks:
        lines.append(f"{c.name}: {c.status}" + (f" ({c.detail})" if c.detail else ""))
    lines.append(f"accessibility: S {'all' if access.s_accessible.all() else 'NOT all'} "
                 f"reachable, I {'all' if access.i_accessible.all() else 'NOT all'} reachable")
    doc: dict = {
        "input": args.input,
        "validation": validation.to_dict(),
        "accessibility": access.to_dict(),
    }
    if split is not None:
        doc["species_split"] = split
        lines.append(f"susceptible species: {' '.join(split['s_species'])}")
        lines.append(f"infection species: {' '.join(split['i_species'])}")
    if not validation.passed:
        lines += ["", "validation failed; analysis not attempted"]
        _write(out_dir, "analysis.txt", "\n".join(lines) + "\n")
        _write(out_dir, "analysis.json", _json_text(doc))
    _require_valid(validation)

    rank = classify_rank(model)
    lines += ["", "[structure]", f"m: {model.m}", f"n: {model.n}",
              f"rank class: {rank.tag.value}"]
    doc["structure"] = {"m": model.m, "n": model.n, "rank": rank.to_dict()}
    if rank.alpha_n is not None:
        lines.append(f"shared routing column: {_fmt_vec(rank.alpha_n)}")
    if rank.beta is not None:
        lines.append(f"rank-one transmission factors: alpha_m={_fmt_vec(rank.alpha_m)}, "
                     f"beta={_fmt_vec(rank.beta)}")
    if rank.tag is not RankTag.GENERAL:
        R = ngm.replacement_vector(model, rank)
        lines.append(f"replacement vector: {_fmt_vec(R)}")
        doc["replacement_vector"] = R.tolist()
        table = ngm.eig_table(model, rank)
        doc["eig_table"] = table.to_dict()
        lines += ["", "[eigenvectors]",
                  f"w_K: {_fmt_vec(table.w_K)}", f"pi_K: {_fmt_vec(table.pi_K)}",
                  f"w_Ktilde: {_fmt_vec(table.w_Ktilde)}",
                  f"pi_Ktilde: {_fmt_vec(table.pi_Ktilde)}"]
        if rank.alpha_n is not None:
            D_w = ngm.dwell_times(model, rank)
            lines.append(f"dwell times: {_fmt_vec(D_w)}")
            doc["dwell_times"] = D_w.tolist()

    law, report = _solve_endemic(model, rank)
    lines += ["", "[equilibria]", f"R0: {_fmt(report.R0)}",
              f"S0: {_fmt_vec(report.S0)}",
              f"above threshold: {str(report.R0 > 1.0).lower()}",
              f"within threshold band: {str(report.threshold).lower()}",
              f"solver: {report.solver}"]
    for idx, p in enumerate(report.endemic_points, start=1):
        lines.append(f"endemic point {idx}: S_bar={_fmt_vec(p.S_bar)}, "
                     f"I_bar={_fmt_vec(p.I_bar)}, k={_fmt(p.k)}, "
                     f"residual={_fmt(p.residual)}"
                     + (", saddle-node" if p.saddle_node else ""))
    if not report.endemic_points:
        lines.append("endemic points: none found")
    for note in report.notes:
        lines.append(f"note: {note}")
    doc["equilibrium"] = report.to_dict()

    if law is not None:
        lines += ["", "[feedback]",
                  f"amplitude roots: {_fmt_vec(law.roots) if law.roots else '[]'}",
                  f"uniqueness condition: {str(law.uniqueness_condition).lower()}",
                  f"backward bifurcation: {str(law.backward_bifurcation).lower()}"]
        doc["feedback"] = law.to_dict()

    if model.m == 1 and rank.tag is not RankTag.GENERAL \
            and not np.any(model.C != 0.0) and report.R0 > 1.0:
        try:
            det_law = eq.determinant_law(model, rank, report)
            lines += ["", "[determinant law]",
                      f"det J_DFE: {_fmt(det_law.det_J_dfe)}",
                      f"det J_EE: {_fmt(det_law.det_J_ee)}",
                      f"closed forms: {_fmt(det_law.closed_form_dfe)}, "
                      f"{_fmt(det_law.closed_form_ee)}",
                      f"holds: {str(det_law.holds).lower()}"]
            doc["determinant_law"] = det_law.to_dict()
        except (NotApplicable, NotRankOne, BelowThreshold) as exc:
            lines.append(f"determinant law skipped: {exc}")

    _write(out_dir, "analysis.txt", "\n".join(lines) + "\n")
    _write(out_dir, "analysis.json", _json_text(doc))
    print(f"analysis written to {out_dir}/analysis.txt and analysis.json")
    return EXIT_OK


def cmd_lyapunov(args) -> int:
    out_dir = Path(args.out)
    model, _, _ = _load_any(args)
    _require_valid(validate_model(model))
    config = lyap.SamplingConfig(
        n_trajectories=args.trajectories, horizon=args.horizon,
        step=args.step, seed=args.seed)
    cert = lyap.verify_decrease(model, args.kind, config)
    _write(out_dir, "certificate.json", _json_text(cert.to_dict()))
    _write(out_dir, "certificate.csv", cert.trace_csv(0))
    _write(out_dir, "certificate_all.csv", cert.all_traces_csv())
    print(f"kind: {cert.kind}")
    print(f"verdict: {str(cert.verdict).lower()}")
    print(f"worst violation: {_fmt(cert.worst_violation)}")
    print(f"chain-rule gap: {_fmt(cert.chain_rule_gap)}")
    print(f"convergence fraction: {_fmt(cert.convergence_fraction)}")
    return EXIT_OK if cert.verdict else EXIT_VERDICT_FALSE


def _set_entry(model: BilinearModel, name: str, i: int, j: int | None,
               value: float) -> BilinearModel:
    parts = {"A": model.A.copy(), "A_S": model.A_S.copy(),
             "B": model.B.copy(), "P": model.P.copy(),
             "Lambda": model.Lambda.copy(), "C": model.C.copy()}
    if name not in parts:
        raise ParseError(f"unknown matrix {name!r} in --entry")
    target = parts[name]
    try:
        if target.ndim == 1:
            if j is not None:
                raise ParseError(f"{name} is a vector; use {name}[i]")
            target[i] = value
        else:
            if j is None:
                raise ParseError(f"{name} is a matrix; use {name}[i,j]")
            target[i, j] = value
    except IndexError:
        raise ParseError(f"index out of range for {name} in --entry")
    return BilinearModel(**parts)


def cmd_scan(args) -> int:
    out_dir = Path(args.out)
    model, _, _ = _load_any(args)
    m = _ENTRY_RE.match(args.entry)
    if not m:
        raise ParseError(
            f"--entry must look like B[0,1] or Lambda[0], got {args.entry!r}")
    name, i, j = m.group(1), int(m.group(2)), \
        (int(m.group(3)) if m.group(3) is not None else None)
    try:
        lo_s, hi_s, num_s = args.grid.split(":")
        lo, hi, num = float(lo_s), float(hi_s), int(num_s)
    except ValueError:
        raise ParseError(f"--grid must be lo:hi:num, got {args.grid!r}")
    if not np.isfinite(hi - lo):  # a nan or infinite bound, or an overflowing span
        raise ParseError(f"--grid needs finite bounds less than 1.8e308 apart, "
                         f"got {args.grid!r}")
    if num < 1:
        raise ParseError(f"--grid needs num >= 1, got {args.grid!r}")
    grid = np.linspace(lo, hi, num)

    # A point whose solve fails keeps its row, with empty root cells and the
    # error in a trailing note column; the run still fails, after the write.
    rows = []
    failures = []
    max_roots = 0
    for value in grid:
        point = _set_entry(model, name, i, j, float(value))
        _require_valid(validate_model(point),
                       f"model invalid at {args.entry}={_fmt(value)}")
        try:
            law, _ = eq.feedback_analysis(point, classify_rank(point))
        except AnalysisError as exc:
            if not is_solver_failure(exc):
                raise
            failures.append(exc)
            try:
                R0 = eq.reproduction_number(point)
            except AnalysisError:
                R0 = None  # e.g. S0 overflowed; the note names the first failure
            rows.append((float(value), R0, None, None,
                         False, f"{type(exc).__name__}: {exc}"))
            continue
        rows.append((float(value), law.R0, law.roots, law.saddle_flags,
                     law.backward_bifurcation, ""))
        max_roots = max(max_roots, len(law.roots))

    header = ["param", "R0", "num_roots", "backward"]
    for r in range(1, max_roots + 1):
        header += [f"k{r}", f"saddle{r}"]
    if failures:
        header.append("note")
    out_lines = [",".join(header)]
    for value, R0, roots, saddles, backward, note in rows:
        if roots is None:
            cells = [_fmt(value), "" if R0 is None else _fmt(R0), "", ""] \
                + ["", ""] * max_roots
        else:
            cells = [_fmt(value), _fmt(R0), str(len(roots)), str(backward).lower()]
            for r in range(max_roots):
                if r < len(roots):
                    cells += [_fmt(roots[r]), str(saddles[r]).lower()]
                else:
                    cells += ["", ""]
        if failures:
            cells.append('"' + note.replace('"', '""') + '"' if note else "")
        out_lines.append(",".join(cells))
    _write(out_dir, "scan.csv", "\n".join(out_lines) + "\n")
    backward_any = any(r[4] for r in rows)
    print(f"scan points: {len(rows)}")
    print(f"max roots at one point: {max_roots}")
    print(f"backward bifurcation detected: {str(backward_any).lower()}")
    if failures:
        print(f"failed points: {len(failures)}")
        raise failures[0]
    return EXIT_OK


def cmd_siphons(args) -> int:
    out_dir = Path(args.out)
    net = crn.load_reactions(args.input)
    minimal = crn.minimal_siphons(net)
    total = crn.total_siphon(net, minimal)
    closure = crn.dfe_closure(net, total)

    def _names(idx) -> str:
        return "{" + " ".join(net.species[i] for i in idx) + "}"

    lines = ["reaction network siphon report", f"input: {args.input}",
             f"species: {' '.join(net.species)}",
             f"reactions: {net.n_reactions}", "", "minimal siphons:"]
    doc: dict = {
        "input": args.input,
        "species": list(net.species),
        "minimal_siphons": [s.to_dict() for s in minimal],
        "total_siphon": [net.species[i] for i in total],
        "dfe_closure": [net.species[i] for i in closure],
        "face_blocks": [],
    }
    if not minimal:
        lines.append("  none")
    for s in minimal:
        lines.append(f"  {_names(s.indices)} critical={str(s.critical).lower()}")
    lines.append(f"total siphon: {_names(total)}")
    lines.append(f"dfe closure: {_names(closure)}")
    lines += ["", "face Jacobian blocks:"]

    def unfound(s, error: str | None = None) -> None:
        lines.append(f"  {_names(s.indices)}: {error or 'no face equilibrium settled'}")
        entry = {"siphon": list(s.species), "found": False}
        doc["face_blocks"].append(entry if error is None else {**entry, "error": error})

    # Each face is settled from ones off the face; face_block_jacobian
    # decides whether the flow settled to an equilibrium (NotEquilibrium).
    # A face whose settling fails keeps its entry, with the error; the run
    # still fails, after the write, with the first such error.
    settle = sim.IntegratorConfig(settle_tol=1e-13)
    failures = []
    for s in minimal:
        x0 = np.ones(net.n_species)
        x0[list(s.indices)] = 0.0
        try:
            x_eq = sim.integrate(net.rhs, x0, args.horizon, settle).states[-1].copy()
        except (PositivityViolation, NonFiniteValue, StepUnderflow) as exc:
            failures.append(
                type(exc)(f"settling the face of {_names(s.indices)}: {exc}"))
            unfound(s, str(failures[-1]))
            continue
        x_eq[list(s.indices)] = 0.0
        try:
            blocks = crn.face_block_jacobian(net, s.indices, x_eq)
        except NotEquilibrium:
            unfound(s)
            continue
        except AnalysisError as exc:
            unfound(s, str(exc))
            continue
        sa = spectral.spectral_abscissa(blocks.J_perp) \
            if blocks.J_perp.size else float("-inf")
        lines.append(f"  {_names(s.indices)}: J_perp={_fmt_mat(blocks.J_perp)}, "
                     f"transversal spectral abscissa={_fmt(sa)}")
        doc["face_blocks"].append({
            "siphon": list(s.species), "found": True,
            "equilibrium": x_eq.tolist(),
            "J_perp": blocks.J_perp.tolist(),
            "J_tan": blocks.J_tan.tolist(),
            "transversal_abscissa": sa,
        })
    _write(out_dir, "siphons.txt", "\n".join(lines) + "\n")
    _write(out_dir, "siphons.json", _json_text(doc))
    print(f"minimal siphons: {len(minimal)}")
    print(f"total siphon: {_names(total)}")
    if failures:
        print(f"failed faces: {len(failures)}")
        raise failures[0]
    return EXIT_OK


def cmd_simulate(args) -> int:
    out_dir = Path(args.out)
    if _input_format(args) == "rxn":
        net = crn.load_reactions(args.input)
        rhs, names = net.rhs, list(net.species)
    else:
        model, names, _ = _load_any(args)
        _require_valid(validate_model(model))
        rhs = model.rhs
    try:
        x0 = np.array([float(v) for v in args.x0.split(",")])
    except ValueError:
        raise ParseError("--x0 must be a comma-separated vector")
    if x0.size != len(names):
        raise ParseError(
            f"--x0 has {x0.size} entries; model has {len(names)} states")
    if not np.all(np.isfinite(x0) & (x0 >= 0.0)):
        raise ParseError(f"--x0 entries must be finite and nonnegative, "
                         f"got {_fmt_vec(x0)}")
    cfg = sim.IntegratorConfig(step=args.step, adaptive=args.adaptive,
                               settle_tol=args.settle)
    traj = sim.integrate(rhs, x0, args.horizon, cfg)
    _write(out_dir, "trajectory.csv", traj.to_csv(names))
    print(f"samples: {traj.times.size}")
    print(f"endpoint: {_fmt_vec(traj.states[-1])}")
    if traj.terminated_early:
        print(f"terminated early: {traj.reason}")
    return EXIT_OK


def _positive(cast):
    """argparse type: a finite value of type cast that is > 0."""
    def positive(text: str):
        value = cast(text)
        if not (np.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(
                f"must be finite and positive, got {text!r}")
        return value
    return positive


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0 (what numpy's default_rng accepts)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser, model_input: bool = True,
                i_species: bool = True):
    """The input path and --out; --input-format and --i-species where read."""
    p.add_argument("input", help="model bundle (.model/.json) or reaction file (.rxn)"
                   if model_input else "reaction file (.rxn)")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    if model_input:
        p.add_argument("--input-format", choices=["model", "rxn"], default=None,
                       help="override the extension-based input format guess")
    if model_input and i_species:
        p.add_argument("--i-species", default=None,
                       help="comma-separated infection species for .rxn inputs "
                            "(default: union of minimal siphons)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bbepi",
        description="equilibrium, spectral, Lyapunov, and siphon analysis "
                    "for balanced bilinear epidemic models")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full model analysis report")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lyapunov", help="sampled decrease certificate")
    _add_common(p)
    p.add_argument("--kind", choices=["dfe", "ee"], required=True,
                   help="which certificate to audit")
    p.add_argument("--trajectories", type=_positive(int), default=20)
    p.add_argument("--horizon", type=_positive(float), default=200.0)
    p.add_argument("--step", type=_positive(float), default=0.01)
    p.add_argument("--seed", type=_nonnegative_int, default=0,
                   help="RNG seed, a nonnegative integer (default 0)")
    p.set_defaults(func=cmd_lyapunov)

    p = sub.add_parser("scan", help="sweep one matrix entry, tabulate roots")
    _add_common(p)
    p.add_argument("--entry", required=True,
                   help="scalar entry to sweep, e.g. B[0,0] or Lambda[0]")
    p.add_argument("--grid", required=True, help="sweep grid lo:hi:num")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("siphons", help="siphon and face structure report")
    _add_common(p, model_input=False)
    p.add_argument("--horizon", type=_positive(float), default=200.0,
                   help="settling horizon for face equilibria")
    p.set_defaults(func=cmd_siphons)

    p = sub.add_parser("simulate", help="integrate one trajectory to CSV")
    _add_common(p, i_species=False)
    p.add_argument("--x0", required=True, help="initial state, comma separated")
    p.add_argument("--horizon", type=_positive(float), default=100.0)
    p.add_argument("--step", type=_positive(float), default=0.01)
    p.add_argument("--adaptive", action="store_true")
    p.add_argument("--settle", type=_positive(float), default=None,
                   help="stop early when the field norm falls below this")
    p.set_defaults(func=cmd_simulate)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # An overflow ends a run by a typed error (NonFiniteValue, or the
        # kernels' NoConvergence on non-finite input), not by numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (AnalysisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, AnalysisError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
