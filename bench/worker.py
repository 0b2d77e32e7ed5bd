"""One benchmark process: set up a workload, then measure or trace it.

Started by run.py with BLAS threads pinned and the checkout's src/ on
PYTHONPATH. It prints SETUP_DONE once set-up ends (run.py times set-up up
to that line), progress lines, and finally `RESULT <json>`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from stats import TAIL_BEYOND, ContractBreak, Tally, WrongResult
from spans import Tracer
from workloads import OPS_DIR, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
IMPORT_SAMPLES = 3


def execute(op, tally: Tally, around=None):
    """Time op.run(), check its result untimed, and count the outcome."""
    if op.prepare is not None:
        op.prepare()
    error = None
    t0 = time.perf_counter()
    try:
        if around is None:
            result = op.run()
        else:
            with around(op):
                result = op.run()
    except Exception as exc:  # any exception the program raises fails the op
        error = ContractBreak(f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    if error is None:
        try:
            op.check(result)
        except (WrongResult, ContractBreak) as exc:
            error = exc
        except Exception as exc:  # an output the check cannot read is wrong
            error = WrongResult(f"check raised {type(exc).__name__}: {exc}")
    if error is not None and op.label not in tally.failures:
        print(f"failed {op.label}: {error}", flush=True)
    tally.record(op.label, elapsed, error)


def measure(workload, seconds: float) -> tuple[Tally, float]:
    """Whole rounds until `seconds` have passed, the workload's minimum
    number of rounds is done and the tail has its samples."""
    tally = Tally(workload.known_breaks)
    start = time.perf_counter()
    r = 0
    while True:
        for op in workload.round(r):
            execute(op, tally)
        r += 1
        wall = time.perf_counter() - start
        if (wall >= seconds and r >= workload.min_rounds
                and tally.attempted > TAIL_BEYOND):
            return tally, wall


def traced_rounds(workload) -> tuple[Tally, Tally, Tracer]:
    """The first trace_rounds rounds in process, each untraced then traced.

    Alternating round by round keeps drift in machine speed out of the
    traced/untraced ratio. Output bytes are counted in the traced rounds.
    """
    untraced, traced = Tally(workload.known_breaks), Tally(workload.known_breaks)
    tracer = Tracer()
    prefix = "cli" if workload.name == "cli-cold" else "op"

    def around(op):
        tracer.op += 1
        return tracer.span(f"{prefix}.{op.kind}")

    for r in range(workload.trace_rounds):
        for op in workload.round(r, in_process=True):
            execute(op, untraced)
        before = workload.output_bytes
        tracer.install()
        try:
            for op in workload.round(r, in_process=True):
                execute(op, traced, around)
        finally:
            tracer.uninstall()
        tracer.counters["cli.output_bytes"] += workload.output_bytes - before
    return untraced, traced, tracer


def import_seconds() -> dict[str, float]:
    """import.bbepi_s and import.scipy_optimize_s, each in fresh processes."""
    code = ("import time; t = time.perf_counter(); import bbepi; "
            "print(time.perf_counter() - t)")
    bbepi_s, scipy_s = [], []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                             capture_output=True, timeout=120)
        bbepi_s.append(float(out.stdout))
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bbepi"],
                             check=True, text=True, capture_output=True, timeout=120)
        for line in out.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "scipy.optimize":
                scipy_s.append(int(fields[1]) * 1e-6)
    return {"import.bbepi_s": statistics.median(bbepi_s),
            "import.scipy_optimize_s": statistics.median(scipy_s) if scipy_s else 0.0}


def blas_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def host_spin_ms() -> float:
    """Median time of a fixed pure-Python loop: tells host speed changes apart."""
    def spin():
        t0 = time.perf_counter()
        x = 0
        for i in range(100_000):
            x += i * i
        return time.perf_counter() - t0
    return 1e3 * statistics.median(spin() for _ in range(21))


def environment() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "host_spin_ms": host_spin_ms(), **blas_record()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out)
    if args.workload != "cli-cold" or args.trace:
        import bbepi
        if not Path(bbepi.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"bbepi imported from {bbepi.__file__}, not from src/")
    workload.setup()
    print("SETUP_DONE", flush=True)
    if args.setup_only:
        return 0

    result = {"env": environment(), "shares": workload.shares()}
    if args.trace:
        untraced, tally, tracer = traced_rounds(workload)
        tracer.write(out / "spans.csv")
        layers = tracer.layer_metrics()
        layers.update(import_seconds())
        traced_ops = tally.attempted / sum(tally.latencies_s)
        untraced_ops = untraced.attempted / sum(untraced.latencies_s)
        layers["trace.ops_per_s"] = traced_ops
        layers["trace.untraced_ops_per_s"] = untraced_ops
        layers["trace.speed_ratio"] = traced_ops / untraced_ops
        layers["trace.op_s"] = sum(tally.latencies_s)
        result["layers"] = layers
        result["layer_shares"] = tracer.layer_shares()
    else:
        tally, wall = measure(workload, args.seconds)
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" \
            else resource.RUSAGE_SELF
        result["end_to_end"] = {**tally.end_to_end(),
                                "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0}
        result["wall_s"] = wall
    result.update(attempted=tally.attempted, failed=tally.failed,
                  unexpected=tally.unexpected, failures=tally.failures)
    shutil.rmtree(out / OPS_DIR, ignore_errors=True)
    print("RESULT " + json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
