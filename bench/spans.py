"""Span recording around the library's layer boundaries, from outside it.

Tracer.install() replaces public module attributes and class methods of
bbepi with timing wrappers; every module namespace that holds the same
function object is patched, so calls through `from .x import f` bindings
are seen too. Spans (id, parent, op, name, start, end) stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute); an attribute "Class.method" patches a method.
TARGETS = [
    ("spectral.perron", "bbepi.spectral", "perron"),
    ("spectral.m_inverse", "bbepi.spectral", "m_inverse"),
    ("spectral.is_irreducible", "bbepi.spectral", "is_irreducible"),
    ("ngm.force_of_infection", "bbepi.ngm", "force_of_infection"),
    ("ngm.ngm_at", "bbepi.ngm", "ngm_at"),
    ("ngm.loop_gain", "bbepi.ngm", "loop_gain"),
    ("ngm.loop_ngm", "bbepi.ngm", "loop_ngm"),
    ("ngm.replacement_vector", "bbepi.ngm", "replacement_vector"),
    ("ngm.dwell_times", "bbepi.ngm", "dwell_times"),
    ("ngm.eig_table", "bbepi.ngm", "eig_table"),
    ("equilibrium.dfe", "bbepi.equilibrium", "dfe"),
    ("equilibrium.reproduction_number", "bbepi.equilibrium", "reproduction_number"),
    ("equilibrium.endemic_rank_one", "bbepi.equilibrium", "endemic_rank_one"),
    ("equilibrium.endemic_spectral", "bbepi.equilibrium", "endemic_spectral"),
    ("equilibrium.feedback_analysis", "bbepi.equilibrium", "feedback_analysis"),
    ("equilibrium.determinant_law", "bbepi.equilibrium", "determinant_law"),
    ("equilibrium.brentq", "bbepi.equilibrium", "brentq"),
    ("model.validate_model", "bbepi.model", "validate_model"),
    ("model.classify_rank", "bbepi.model", "classify_rank"),
    ("model.rhs", "bbepi.model", "BilinearModel.rhs"),
    ("sim.integrate", "bbepi.sim", "integrate"),
    ("sim.integrate_batch", "bbepi.sim", "integrate_batch"),
    ("lyapunov.verify_decrease", "bbepi.lyapunov", "verify_decrease"),
    ("lyapunov.all_traces_csv", "bbepi.lyapunov", "LyapunovCertificate.all_traces_csv"),
    ("crn.minimal_siphons", "bbepi.crn", "minimal_siphons"),
    ("crn.network_to_bilinear", "bbepi.crn", "network_to_bilinear"),
    ("crn.face_block_jacobian", "bbepi.crn", "face_block_jacobian"),
    ("crn.linprog", "bbepi.crn", "linprog"),
    ("crn.rhs", "bbepi.crn", "ReactionNetwork.rhs"),
]


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its child spans cover.

    spans is a sequence of (id, parent, op, name, start, end) with ids equal
    to positions; overlapping children are merged before subtracting.
    """
    children = defaultdict(list)
    for sid, parent, _, _, t0, t1 in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = []
    for sid, _, _, _, t0, t1 in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((t1 - t0) - covered)
    return out


class Tracer:
    """In-memory span recorder with per-call hooks for layer counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around a block, as a child of the open span."""
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else -1, self.op, name, 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[4] = time.perf_counter()
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, hook=None):
        """A wrapper of fn that records a span; name may be a function of the call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1] if stack else -1, self.op,
                   name(*args, **kwargs) if callable(name) else name, 0.0, 0.0]
            spans.append(rec)
            stack.append(sid)
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _hooks(self):
        c = self.counters

        def integrated(traj):
            c["sim.steps"] += traj.times.size - 1
            c["sim.settled"] += bool(traj.terminated_early)

        def equilibria(report):
            c["equilibrium.points"] += len(report.endemic_points)

        def feedback(result):
            law, report = result
            c["equilibrium.roots_found"] += len(law.roots)
            equilibria(report)

        def csv(text):
            c["lyapunov.csv_bytes"] += len(text)

        return {"sim.integrate": integrated, "sim.integrate_batch": integrated,
                "equilibrium.endemic_rank_one": equilibria,
                "equilibrium.endemic_spectral": equilibria,
                "equilibrium.feedback_analysis": feedback,
                "lyapunov.all_traces_csv": csv}

    def install(self):
        """Patch every target; uninstall() restores the originals."""
        hooks = self._hooks()
        modules = [m for k, m in list(sys.modules.items())
                   if k == "bbepi" or k.startswith("bbepi.")]
        for name, modname, attr in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self.wrap(name, cls.__dict__[meth], hooks.get(name)))
                continue
            original = getattr(owner, attr)
            label = name
            if name == "crn.minimal_siphons":
                def label(net, *a, **k):
                    return f"crn.minimal_siphons.n{net.n_species:02d}"
            wrapper = self.wrap(label, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value):
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def write(self, path):
        """Write the spans as CSV: id, parent, op, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{op},{name},{t0!r},{t1!r}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and counters per traced name, plus derived ratios."""
        selfs = self_times(self.spans)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for (sid, parent, _, name, t0, t1), st in zip(self.spans, selfs):
            calls[name] += 1
            self_s[name] += st
            total_s[name] += t1 - t0
        for name in list(calls):
            if name.startswith("crn.minimal_siphons."):
                calls["crn.minimal_siphons"] += calls[name]
                self_s["crn.minimal_siphons"] += self_s[name]
        # Field evaluations made by the integrators themselves.
        rhs_in_sim = sum(1 for _, parent, _, name, _, _ in self.spans
                         if name in ("model.rhs", "crn.rhs") and parent >= 0
                         and self.spans[parent][3].startswith("sim."))
        c = self.counters
        integrations = calls["sim.integrate"] + calls["sim.integrate_batch"]
        out = {f"{name}.calls": float(n) for name, n in calls.items()}
        out.update({f"{name}.self_s": s for name, s in self_s.items()})
        for name in ("spectral.perron", "model.rhs", "crn.rhs"):
            out[f"{name}.us_per_call"] = (1e6 * total_s[name] / calls[name]
                                          if calls[name] else 0.0)
        out["sim.steps"] = c["sim.steps"]
        out["sim.rhs_per_step"] = rhs_in_sim / c["sim.steps"] if c["sim.steps"] else 0.0
        out["sim.settled_frac"] = c["sim.settled"] / integrations if integrations else 0.0
        out["equilibrium.roots_found"] = c["equilibrium.roots_found"]
        points = c["equilibrium.points"]
        out["equilibrium.perron_per_point"] = (calls["spectral.perron"] / points
                                               if points else 0.0)
        out["lyapunov.csv_bytes"] = c["lyapunov.csv_bytes"]
        out["cli.output_bytes"] = c["cli.output_bytes"]
        for _, parent, _, name, t0, t1 in self.spans:
            if parent < 0:  # one root span per operation, named by its kind
                out[f"{name}.wall_s"] = out.get(f"{name}.wall_s", 0.0) + (t1 - t0)
        return out

    def layer_shares(self) -> dict[str, float]:
        """Share of total op time spent as self time in each bbepi module."""
        selfs = self_times(self.spans)
        op_total = sum(t1 - t0 for _, parent, _, _, t0, t1 in self.spans if parent < 0)
        shares = defaultdict(float)
        for (_, _, _, name, _, _), st in zip(self.spans, selfs):
            shares[name.split(".")[0]] += st / op_total if op_total else 0.0
        return dict(shares)
