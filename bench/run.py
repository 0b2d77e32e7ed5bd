"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Workloads, metrics and bounds are listed
in BENCHMARK.json; bench/README.md describes them. Each run starts worker
processes (bench/worker.py) with BLAS pinned to one thread and the
checkout's src/ on PYTHONPATH:

* --trace 0 sets the workload up three times, each in a fresh worker, and
  reports the median as setup_s; the last worker then runs whole rounds of
  checked operations for at least --seconds and reports the end-to-end
  metrics.
* --trace 1 runs a fixed number of rounds in process, each once untraced
  and once traced, and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Files
go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


class WorkerFailed(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker to completion; returns (set-up seconds, its RESULT)."""
    t0 = time.perf_counter()
    # A session of its own, so that killing the group also ends bbepi children.
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT,
                            start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    timer.start()
    setup_s = result = None
    try:
        for line in proc.stdout:
            if line.startswith("SETUP_DONE"):
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                print(line, end="", flush=True)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None:
        raise WorkerFailed(f"worker {' '.join(argv)} exited with {code}")
    return setup_s, result


def source_record() -> dict:
    """git sha when the checkout is a repository, and a hash of src/ always."""
    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below

    if not (ROOT / "src" / "bbepi" / "__init__.py").is_file():
        print(f"error: no bbepi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}" + ("-trace" if args.trace else "")
    out = ROOT / ".bench_out" / tag
    shutil.rmtree(out, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    setups = []
    try:
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setup_s, _ = run_worker(common + ["--out", str(out / f"setup{i}"),
                                                  "--setup-only"], deadline)
                setups.append(setup_s)
                shutil.rmtree(out / f"setup{i}", ignore_errors=True)
        setup_s, result = run_worker(common + ["--out", str(out / "run")], deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    if args.trace:
        listed = spec["per_layer"]
        values = {m["name"]: result["layers"].get(m["name"], 0.0) for m in listed}
    else:
        listed = spec["end_to_end"]
        values = {**result["end_to_end"], "setup_s": statistics.median(setups)}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    record = {**result, "source": source_record(), "setup_samples_s": setups,
              "workload": args.workload, "seed": args.seed, "metrics": metrics}
    (out / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print("env " + json.dumps({**result["env"], **record["source"]}, sort_keys=True))
    print("inputs " + json.dumps(result["shares"], sort_keys=True))
    if args.trace:
        print("layer shares of op time " + json.dumps(
            {k: round(v, 4) for k, v in sorted(result["layer_shares"].items())}))
    else:
        e2e = result["end_to_end"]
        print(f"op_tail_ms is the p{e2e['op_tail_pct']:.1f} latency of "
              f"{result['attempted']} ops (10 beyond it); failed_frac "
              f"{result['failed'] / result['attempted']:.4f}; measured {result['wall_s']:.1f} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": result["unexpected"] == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
