"""The four workloads: seeded inputs, the operations run on them, and checks.

A workload is a sequence of rounds; a run executes whole rounds, so every
run sees the same mix of input classes. Library workloads draw their rounds
from a pool generated at set-up and cycle through it; cli-cold repeats one
fixed pass of invocations.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
from checks import require
from stats import ContractBreak


# Operation outputs go here; the worker deletes the directory after a run.
OPS_DIR = "ops"


@dataclass
class Op:
    """One timed operation: run() is timed, check(result) is not."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    prepare: Callable[[], None] | None = None


def _doc(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, dict):
        return {k: _doc(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_doc(v) for v in x]
    return x


def inputs_text(doc) -> str:
    """The byte form in which a workload's generated inputs are written."""
    return json.dumps(_doc(doc), sort_keys=True)


def _bilinear(model: dict):
    import bbepi
    return bbepi.BilinearModel(A=model["A"], A_S=model["A_S"], B=model["B"],
                               P=model["P"], Lambda=model["Lambda"], C=model["C"])


def _warm_library():
    """Run each library path once on the scalar SIR model, untimed."""
    from bbepi import equilibrium, lyapunov
    sir = _bilinear(inputs.make_model([[-1.0]], [[-1.0]], [[2.0]], [[1.0]], [1.0]))
    endemic_op(sir)
    equilibrium.endemic_spectral(sir)
    feedback_op(_bilinear(inputs.backward_model(0.9)))
    cfg = lyapunov.SamplingConfig(n_trajectories=2, horizon=1.0)
    cert = lyapunov.verify_decrease(sir, "ee", cfg)
    cert.trace_csv(0), cert.all_traces_csv()


class Workload:
    name = ""
    trace_rounds = 1
    min_rounds = 1
    # Labels of operations known to break the README exit-code contract.
    known_breaks: frozenset[str] = frozenset()

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out = out_dir
        self.output_bytes = 0

    @classmethod
    def generate(cls, seed: int):
        """All inputs of the workload for this seed, as a JSON-able document."""
        raise NotImplementedError

    def setup(self):
        """Generate and write the inputs, build oracles, warm up."""
        raise NotImplementedError

    def round(self, r: int, in_process: bool = False) -> list[Op]:
        raise NotImplementedError

    def shares(self) -> dict[str, float]:
        """Share of inputs with each property the workload varies."""
        raise NotImplementedError


# ------------------------------------------------------------ endemic-sweep

CLASSES = ("casep", "caseb", "general")
# One stratum below threshold and three above, with a guard band around 1.
R0_STRATA = ((0.3, 0.95), (1.05, 1.7), (1.7, 2.35), (2.35, 3.0))


def endemic_design(r: int) -> list[tuple[str, int, int]]:
    """(class, m, R0 stratum) of the twelve slots of round r.

    Each class gets each stratum once per round, so exactly three quarters
    of the models are above threshold. General-class models with m = 1 are
    rank one; keeping that slot above threshold makes exactly two
    general-rank endemic solves (m >= 2, R0 > 1) per round.
    """
    strata = {}
    for c, case in enumerate(CLASSES):
        if case == "general":
            first = 1 + r % 3
            rest = [s for s in range(4) if s != first]
            k = r % 3
            strata[case] = [first] + rest[k:] + rest[:k]
        else:
            strata[case] = [(m + r + c) % 4 for m in range(4)]
    return [(case, m + 1, strata[case][m]) for m in range(4) for case in CLASSES]


def endemic_op(model):
    """What `bbepi analyze` does on a feedback-free model, in process."""
    from bbepi import equilibrium, model as bm, ngm
    validation = bm.validate_model(model)
    rank = bm.classify_rank(model)
    R0 = equilibrium.reproduction_number(model)
    rank_one = rank.tag is not bm.RankTag.GENERAL
    if rank_one:
        ngm.eig_table(model, rank)
        report = equilibrium.endemic_rank_one(model, rank)
    else:
        report = equilibrium.endemic_spectral(model)
    law = None
    if model.m == 1 and rank_one and report.R0 > 1.0:
        law = equilibrium.determinant_law(model, rank, report)
    return validation, R0, report, law


def check_endemic(model: dict, above: bool, result):
    validation, R0, report, law = result
    require(validation.passed, "validation failed on a valid model")
    checks.r0_matches(model, R0)
    if not above:
        require(not report.endemic_points, "endemic point reported below threshold")
        return
    require(len(report.endemic_points) == 1,
            f"{len(report.endemic_points)} endemic points above threshold, expected 1")
    p = report.endemic_points[0]
    checks.endemic_point(model, p.S_bar, p.I_bar)
    require(law is None or law.holds, "determinant law does not hold")


class EndemicSweep(Workload):
    name = "endemic-sweep"
    pool_rounds = 24
    trace_rounds = 6

    @classmethod
    def generate(cls, seed):
        rng = np.random.default_rng(seed)
        pool = []
        for r in range(cls.pool_rounds):
            slots = []
            for case, m, stratum in endemic_design(r):
                # B is rank one when n = 1, so general rank needs n >= 2 as well.
                n = int(rng.integers(2 if case == "general" and m > 1 else 1, 7))
                target = float(rng.uniform(*R0_STRATA[stratum]))
                model = inputs.with_r0(inputs.random_model(rng, m, n, case), target)
                slots.append({"case": case, "r0": target, "model": model})
            pool.append(slots)
        return pool

    def setup(self):
        self.pool = self.generate(self.seed)
        (self.out / "inputs.json").write_text(inputs_text(self.pool))
        self.objects = [[_bilinear(s["model"]) for s in slots] for slots in self.pool]
        _warm_library()

    def round(self, r, in_process=False):
        r %= self.pool_rounds
        return [Op(s["case"], s["case"], partial(endemic_op, obj),
                   partial(check_endemic, s["model"], s["r0"] > 1.0))
                for s, obj in zip(self.pool[r], self.objects[r])]

    def shares(self):
        slots = [s for slots in self.pool for s in slots]
        tags = [inputs.rank_class(s["model"]) for s in slots]
        out = {f"rank.{t}": tags.count(t) / len(tags)
               for t in ("CaseP", "CaseB", "Both", "General")}
        out["above_threshold"] = sum(s["r0"] > 1.0 for s in slots) / len(slots)
        return out


# ------------------------------------------------------------ feedback-scan

# The 13-point sweep of the recycling strength. One operation is a whole
# sweep: a single grid point takes about 35 ms, and the tail of such short
# operations measures scheduler jitter on a shared host rather than the solver.
SWEEP = np.linspace(0.0, 1.0, 13)
BACKWARD_C2 = 0.9 * SWEEP


def feedback_op(model):
    """What `bbepi scan` does at one grid point."""
    from bbepi import equilibrium, model as bm
    validation = bm.validate_model(model)
    rank = bm.classify_rank(model)
    law, report = equilibrium.feedback_analysis(model, rank)
    return validation, law, report


def scan_op(models):
    return [feedback_op(model) for model in models]


def check_feedback(model: dict, root_count: int | None, result):
    validation, law, report = result
    require(validation.passed, "validation failed on a valid model")
    checks.r0_matches(model, law.R0)
    if root_count is not None:
        require(len(law.roots) == root_count,
                f"{len(law.roots)} amplitude roots, dense sign scan finds {root_count}")
    elif law.R0 > 1.0:
        require(bool(report.endemic_points), "no endemic point above threshold")
    for p in report.endemic_points:
        checks.endemic_point(model, p.S_bar, p.I_bar)


def check_scan(models: list[dict], root_counts: list | None, results):
    for i, (model, result) in enumerate(zip(models, results)):
        check_feedback(model, None if root_counts is None else root_counts[i], result)


def recycling_sweep(model: dict) -> list[dict]:
    """The model with its feedback C scaled by each point of SWEEP."""
    return [{**model, "C": s * model["C"]} for s in SWEEP]


class FeedbackScan(Workload):
    name = "feedback-scan"
    pool_rounds = 40
    trace_rounds = 8

    @classmethod
    def generate(cls, seed):
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(cls.pool_rounds):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            pool.append(inputs.feedback_model(rng, m, n, float(rng.uniform(0.5, 3.0))))
        return {"backward": [inputs.backward_model(float(c)) for c in BACKWARD_C2],
                "random": pool}

    def setup(self):
        doc = self.generate(self.seed)
        (self.out / "inputs.json").write_text(inputs_text(doc))
        self.backward = doc["backward"]
        self.sweeps = [recycling_sweep(model) for model in doc["random"]]
        self.counts = [inputs.backward_root_count(float(c)) for c in BACKWARD_C2]
        self.backward_objects = [_bilinear(m) for m in self.backward]
        self.objects = [[_bilinear(m) for m in sweep] for sweep in self.sweeps]
        _warm_library()

    def round(self, r, in_process=False):
        r %= self.pool_rounds
        return [Op("backward", "backward", partial(scan_op, self.backward_objects),
                   partial(check_scan, self.backward, self.counts)),
                Op("random", "random", partial(scan_op, self.objects[r]),
                   partial(check_scan, self.sweeps[r], None))]

    def shares(self):
        bases = [sweep[-1] for sweep in self.sweeps]
        return {"backward_family": 0.5,
                "backward_multi_root": sum(c >= 2 for c in self.counts) / len(self.counts),
                "random_above_threshold":
                    sum(inputs.r0(m) > 1.0 for m in bases) / len(bases)}


# ----------------------------------------------------------- lyapunov-audit

# The band of the slowest linear decay rate at the attractor. RK4 steps to
# settle scale as 1 / rate; a narrow band near the fast end of what the
# families give keeps every op near 4k steps, so ops and runs cost alike.
DECAY_BAND = (0.6, 0.7)


def lyapunov_model(rng: np.random.Generator, kind: str) -> dict:
    """A certificate model whose slowest decay rate falls in DECAY_BAND."""
    lo, hi = DECAY_BAND
    while True:
        if kind == "dfe":
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            model = inputs.diagonal_As(inputs.random_model(rng, m, n, "casep"), rng)
            model = inputs.with_r0(model, float(rng.uniform(0.2, 0.8)))
        else:
            n = int(rng.integers(1, 4))
            model = inputs.with_r0(inputs.random_model(rng, 1, n, "general"),
                                   float(rng.uniform(1.2, 3.0)))
        if lo <= inputs.decay_rate(model, kind) < hi:
            return model


def lyapunov_op(model, kind: str, out_dir: Path):
    """What `bbepi lyapunov` does with the CLI defaults, files included."""
    from bbepi import lyapunov
    cert = lyapunov.verify_decrease(model, kind)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "certificate.json").write_text(
        json.dumps(cert.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8")
    (out_dir / "certificate.csv").write_text(cert.trace_csv(0), encoding="utf-8")
    all_csv = cert.all_traces_csv()
    (out_dir / "certificate_all.csv").write_text(all_csv, encoding="utf-8")
    return cert, all_csv.count("\n")


def attractor(model: dict, kind: str) -> np.ndarray:
    if kind == "dfe":
        return np.concatenate([inputs.dfe_profile(model), np.zeros(model["n"])])
    return inputs.single_class_endemic(model)


def check_certificate(model: dict, kind: str, result):
    cert, lines = result
    require(cert.verdict, f"{kind} certificate verdict false")
    require(cert.chain_rule_gap <= checks.TOL,
            f"chain-rule gap {cert.chain_rule_gap:.3e} above {checks.TOL:g}")
    require(cert.convergence_fraction == 1.0,
            f"convergence fraction {cert.convergence_fraction}")
    target = attractor(model, kind)
    require(float(np.max(np.abs(cert.target - target))) <= checks.TOL,
            "certificate target is not the attractor")
    require(lines == 1 + cert.n_trajectories * cert.times.size,
            f"certificate_all.csv has {lines} lines")


class LyapunovAudit(Workload):
    name = "lyapunov-audit"
    pool_rounds = 12
    trace_rounds = 2

    @classmethod
    def generate(cls, seed):
        rng = np.random.default_rng(seed)
        return [[{"kind": kind, "model": lyapunov_model(rng, kind)} for kind in ("dfe", "ee")]
                for _ in range(cls.pool_rounds)]

    def setup(self):
        self.pool = self.generate(self.seed)
        (self.out / "inputs.json").write_text(inputs_text(self.pool))
        self.objects = [[_bilinear(s["model"]) for s in slots] for slots in self.pool]
        _warm_library()

    def round(self, r, in_process=False):
        r %= self.pool_rounds
        return [Op(s["kind"], s["kind"],
                   partial(lyapunov_op, obj, s["kind"], self.out / OPS_DIR),
                   partial(check_certificate, s["model"], s["kind"]))
                for s, obj in zip(self.pool[r], self.objects[r])]

    def shares(self):
        slots = [s for slots in self.pool for s in slots]
        return {k: sum(s["kind"] == k for s in slots) / len(slots) for k in ("dfe", "ee")}


# ----------------------------------------------------------------- cli-cold

SCAN_POINTS = 26
STAGED_STAGES = (4, 16)
SIMULATE_HORIZON = 2.0


def cli_inputs(seed: int) -> tuple[dict[str, str], dict[str, dict], dict[str, str]]:
    """(files, models behind them, seeded argument values) for one seed."""
    rng = np.random.default_rng(seed)
    models = {
        "casep": inputs.with_r0(inputs.random_model(rng, 3, 3, "casep"),
                                float(rng.uniform(1.2, 3.0))),
        "caseb": inputs.with_r0(inputs.random_model(rng, 3, 3, "caseb"),
                                float(rng.uniform(1.2, 3.0))),
        "general": inputs.with_r0(inputs.random_model(rng, 2, 3, "general"),
                                  float(rng.uniform(1.2, 3.0))),
    }
    models["feedback"] = inputs.feedback_model(rng, 3, 3, float(rng.uniform(0.5, 3.0)))
    models["dfe"] = lyapunov_model(rng, "dfe")
    models["ee"] = lyapunov_model(rng, "ee")
    models["backward"] = inputs.backward_model(0.0)
    bad = inputs.random_model(rng, 2, 2, "casep")
    bad["P"] = 0.9 * bad["P"]
    models["bad_p"] = bad
    negative = inputs.random_model(rng, 2, 2, "casep")
    negative["Lambda"] = -negative["Lambda"]
    models["negative_lambda"] = negative
    unstable = inputs.with_r0(inputs.diagonal_As(inputs.random_model(rng, 2, 2, "casep"), rng),
                              float(rng.uniform(0.2, 0.8)))
    shift = float(np.max(np.linalg.eigvals(unstable["A"]).real))
    unstable["A"] = unstable["A"] + (0.3 - shift) * np.eye(unstable["n"])
    models["unstable"] = unstable
    files = {f"{k}.model": inputs.model_json(v) for k, v in models.items()}
    sirs_text, models["sirs_demography"] = inputs.sirs_demography(float(rng.uniform(3.0, 5.0)))
    files["sirs_demography.rxn"] = sirs_text
    files["sirs.rxn"] = inputs.SIRS_RXN
    for k in STAGED_STAGES:
        files[f"staged{k + 2:02d}.rxn"] = inputs.staged_network(k, rng)
    # The test suite's network whose face settling leaves the orthant.
    files["random16.rxn"] = inputs.random_network(np.random.default_rng(16), 16, 32)
    x0 = [float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.01, 0.2)), 0.0]
    args = {"x0": ",".join(repr(v) for v in x0)}
    return files, models, args


class CliCold(Workload):
    """A fixed pass of `bbepi` invocations, each in a fresh process."""

    name = "cli-cold"
    trace_rounds = 1
    # Two passes give 40 samples, so the tail has ten beyond it among the
    # costly invocations (see plan()).
    min_rounds = 2
    known_breaks = frozenset({"error:ee-on-general-rank", "error:A-not-hurwitz",
                              "error:face-leaves-orthant"})

    @classmethod
    def generate(cls, seed):
        files, models, args = cli_inputs(seed)
        return {"files": files, "args": args}

    def setup(self):
        files, self.models, self.args = cli_inputs(self.seed)
        self.inputs = self.out / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (self.inputs / name).write_text(text, encoding="utf-8")
        grid = np.linspace(0.0, 0.9, SCAN_POINTS)
        self.scan_counts = [inputs.backward_root_count(float(c)) for c in grid]
        self.siphons = {}
        for name, text in files.items():
            if name.endswith(".rxn"):
                species, src, out, _ = inputs.parse_network(text)
                self.siphons[name] = {frozenset(species[i] for i in s)
                                      for s in checks.minimal_siphons(src, out)}
        self.passes = self.plan()
        subprocess.run([sys.executable, "-m", "bbepi", "--help"], check=True,
                       stdout=subprocess.DEVNULL, timeout=120)

    def plan(self) -> list[tuple[str, str, list[str], int, Callable | None]]:
        """(kind, label, argv, README exit code, output check) of one pass.

        Eleven of the twenty invocations cost little beyond the import and
        nine cost more. Over two passes (40 samples) the median, the mean
        of the 20th and 21st smallest, lies inside the 22 import-bound
        samples, and the tail, the 30th smallest, is the 8th of the 18
        costly ones, so work beyond the import moves it.
        """
        def f(name):
            return str(self.inputs / name)

        def analyze(key):
            return partial(self._analysis, self.models[key])

        x0 = self.args["x0"]
        horizon = repr(SIMULATE_HORIZON)
        return [
            ("analyze", "analyze:casep", ["analyze", f("casep.model")], 0, analyze("casep")),
            ("siphons", "siphons:sirs", ["siphons", f("sirs.rxn")], 0,
             partial(self._siphons, "sirs.rxn")),
            ("error", "error:invalid-P", ["analyze", f("bad_p.model")], 2, None),
            ("lyapunov", "lyapunov:dfe", ["lyapunov", f("dfe.model"), "--kind", "dfe"], 0,
             partial(self._certificate, "dfe")),
            ("analyze", "analyze:caseb", ["analyze", f("caseb.model")], 0, analyze("caseb")),
            ("simulate", "simulate:fixed",
             ["simulate", f("sirs_demography.rxn"), "--x0", x0, "--horizon", horizon], 0,
             partial(self._trajectory, False)),
            ("error", "error:ee-on-general-rank",
             ["lyapunov", f("general.model"), "--kind", "ee"], 4, None),
            ("scan", "scan:backward",
             ["scan", f("backward.model"), "--entry", "C[1,0]",
              "--grid", f"0:0.9:{SCAN_POINTS}"], 0, self._scan),
            ("error", "error:negative-Lambda", ["analyze", f("negative_lambda.model")], 2,
             None),
            ("analyze", "analyze:general", ["analyze", f("general.model")], 0,
             analyze("general")),
            ("siphons", "siphons:staged06", ["siphons", f("staged06.rxn")], 0,
             partial(self._siphons, "staged06.rxn")),
            ("error", "error:A-not-hurwitz",
             ["lyapunov", f("unstable.model"), "--kind", "dfe"], 2, None),
            ("lyapunov", "lyapunov:ee", ["lyapunov", f("ee.model"), "--kind", "ee"], 0,
             partial(self._certificate, "ee")),
            ("analyze", "analyze:feedback", ["analyze", f("feedback.model")], 0,
             analyze("feedback")),
            ("simulate", "simulate:adaptive",
             ["simulate", f("sirs_demography.rxn"), "--x0", x0, "--horizon", horizon,
              "--adaptive"], 0, partial(self._trajectory, True)),
            ("error", "error:scan-general-rank",
             ["scan", f("general.model"), "--entry", "B[0,0]", "--grid", "0.5:3.0:4"], 4, None),
            ("analyze", "analyze:reaction-file", ["analyze", f("sirs_demography.rxn")], 0,
             analyze("sirs_demography")),
            ("error", "error:face-leaves-orthant", ["siphons", f("random16.rxn")], 3, None),
            ("siphons", "siphons:staged18", ["siphons", f("staged18.rxn")], 0,
             partial(self._siphons, "staged18.rxn")),
            ("error", "error:x0-length",
             ["simulate", f("sirs_demography.rxn"), "--x0", "0.5,0.5"], 2, None),
        ]

    def round(self, r, in_process=False):
        ops = []
        for i, (kind, label, argv, code, verify) in enumerate(self.passes):
            out = self.out / OPS_DIR / f"{i:02d}"
            run = self._call if in_process else self._spawn
            ops.append(Op(kind, label, partial(run, argv + ["--out", str(out)]),
                          partial(self._check, code, verify, out),
                          prepare=partial(shutil.rmtree, out, ignore_errors=True)))
        return ops

    def shares(self):
        kinds = [p[0] for p in self.passes]
        return {k: kinds.count(k) / len(kinds)
                for k in ("analyze", "scan", "lyapunov", "siphons", "simulate", "error")}

    # -- running

    @staticmethod
    def _spawn(argv):
        proc = subprocess.run([sys.executable, "-m", "bbepi", *argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        return proc.returncode, proc.stderr

    @staticmethod
    def _call(argv):
        from bbepi import cli
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an uncaught exception exits the CLI with 1
                print(f"{type(exc).__name__}: {exc}", file=buf)
                code = 1
        return code, buf.getvalue()

    def _check(self, expected, verify, out, result):
        code, stderr = result
        if code != expected:
            last = stderr.strip().splitlines()[-1:] or [""]
            raise ContractBreak(f"exit {code}, README expects {expected}: {last[0]}")
        if verify is not None:
            verify(out)
        if out.exists():
            self.output_bytes += sum(p.stat().st_size for p in out.iterdir())

    # -- output checks

    @staticmethod
    def _analysis(model, out):
        doc = json.loads((out / "analysis.json").read_text())
        require((out / "analysis.txt").is_file(), "analysis.txt missing")
        require(doc["validation"]["passed"], "validation failed on a valid model")
        eq = doc["equilibrium"]
        checks.r0_matches(model, eq["R0"])
        points = eq["endemic_points"]
        if eq["R0"] > 1.0:
            if np.any(model["C"] != 0.0):
                require(len(points) >= 1, "no endemic point above threshold")
            else:
                require(len(points) == 1, f"{len(points)} endemic points, expected 1")
        for p in points:
            checks.endemic_point(model, p["S_bar"], p["I_bar"])

    def _scan(self, out):
        rows = checks.csv_rows(out / "scan.csv", "param,R0,num_roots,backward", prefix=True)
        require(len(rows) == SCAN_POINTS, f"scan.csv has {len(rows)} rows")
        ref = float(np.sum(inputs.BACKWARD_B * inputs.BACKWARD_LAMBDA / inputs.BACKWARD_MU))
        for row, count in zip(rows, self.scan_counts):
            require(abs(float(row[1]) - ref) <= checks.TOL, f"scan R0 {row[1]} is not {ref}")
            require(int(row[2]) == count,
                    f"{row[2]} roots at C[1,0]={row[0]}, dense sign scan finds {count}")

    def _certificate(self, kind, out):
        doc = json.loads((out / "certificate.json").read_text())
        require(doc["verdict"] is True, f"{kind} verdict false")
        require(doc["chain_rule_gap"] <= checks.TOL, "chain-rule gap above tolerance")
        require(doc["convergence_fraction"] == 1.0, "not every trajectory converged")
        target = attractor(self.models[kind], kind)
        require(float(np.max(np.abs(np.array(doc["target"]) - target))) <= checks.TOL,
                "certificate target is not the attractor")
        checks.csv_rows(out / "certificate.csv", "t,V,V_dot")
        checks.csv_rows(out / "certificate_all.csv", "trajectory,t,V,V_dot")

    def _siphons(self, name, out):
        doc = json.loads((out / "siphons.json").read_text())
        require((out / "siphons.txt").is_file(), "siphons.txt missing")
        got = {frozenset(s["species"]) for s in doc["minimal_siphons"]}
        require(got == self.siphons[name],
                f"minimal siphons {sorted(map(sorted, got))} differ from the oracle")

    @staticmethod
    def _trajectory(adaptive, out):
        rows = checks.csv_rows(out / "trajectory.csv", "t,s,i,r")
        values = np.array(rows, dtype=float)
        require(bool(np.all(np.isfinite(values))) and bool(np.all(values[:, 1:] >= 0.0)),
                "trajectory leaves the nonnegative orthant")
        require(abs(values[-1, 0] - SIMULATE_HORIZON) <= 1e-9, "trajectory stops early")
        if not adaptive:
            require(len(rows) == round(SIMULATE_HORIZON / 0.01) + 1,
                    f"trajectory.csv has {len(rows)} rows")


WORKLOADS = {w.name: w for w in (EndemicSweep, FeedbackScan, LyapunovAudit, CliCold)}

