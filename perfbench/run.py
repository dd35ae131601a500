"""Layered benchmark of gmarginal.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synth-large --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

* ``synth-large``: n = 128 compatible (kappa, m) drawn from the dominance
  polytope; dominates, synthesize, verify, symplectic_spectrum, williamson
  and local_normal_form per instance.
* ``roundtrip-small``: n = 12 bounded-squeeze Bloch-Messiah states;
  jacobi_decompose, williamson, local_normal_form, dominates, then
  synthesize and verify on the state's own spectra.
* ``cli``: a fixed script of ``python -m gmarginal`` processes.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (spans around every public call, replays
of the two-mode kernels, scaling fits over n, CLI probes and the tracing
overhead).  Metric names and units are those of BENCHMARK.json; the table
also shows instance_ms.p50, instances_per_s and failed_frac, which carry no
bound (see measure.end_to_end).  The lines before the last give that table
and a JSON report (sample counts, tail percentile, tolerances, failures,
inputs, environment); the last line is the result object {"correct",
"attempted", "failed", "metrics"}.

Every process runs with BLAS and OpenMP pinned to one thread.  Set-up time
(setup_s) is the median, over fresh worker processes started before and
after the measured one, of the wall time from launch until ``import
gmarginal`` returned, after one discarded import has written the .pyc
files.  Scratch files go to .bench_build/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("synth-large", "roundtrip-small", "cli")
#: Fresh worker processes timed for setup_s before and after the measured
#: one (which counts too), so the samples span the run's host conditions.
SETUP_BEFORE = 3
SETUP_AFTER = 3
#: Seconds a worker may take to import, and a run to finish after that.
READY_TIMEOUT = 60.0
RUN_TIMEOUT = 150.0
#: Metrics printed in the table but not declared in BENCHMARK.json.
REPORTED_UNITS = {"instance_ms.p50": "ms", "instances_per_s": "1/s", "failed_frac": "ratio"}
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def pinned_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def start_worker(root: str, env: dict) -> tuple:
    """Launch a worker and wait for ``ready``; returns (process, seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")], cwd=root, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        ready = sel.select(READY_TIMEOUT) and proc.stdout.readline() == "ready\n"
    elapsed = time.perf_counter() - start
    if not ready:
        stop(proc)
        raise BenchError("worker did not finish importing gmarginal")
    return proc, elapsed


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def setup_probe(root: str, env: dict) -> float:
    """Set-up time of a fresh worker that is then sent away."""
    proc, elapsed = start_worker(root, env)
    try:
        proc.communicate("", timeout=READY_TIMEOUT)
    finally:
        stop(proc)
    return elapsed


def run(args, root: str) -> tuple:
    env = pinned_env(root)
    subprocess.run([sys.executable, "-c", "import gmarginal"], cwd=root, env=env, check=True,
                   timeout=READY_TIMEOUT)
    setup = [setup_probe(root, env) for _ in range(SETUP_BEFORE)]
    proc, elapsed = start_worker(root, env)
    setup.append(elapsed)
    workdir = os.path.join(root, ".bench_build", "perfbench", f"work-{os.getpid()}")
    request = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": bool(args.trace), "workdir": workdir}
    try:
        out, _ = proc.communicate(json.dumps(request) + "\n", timeout=RUN_TIMEOUT)
    finally:
        stop(proc)
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    setup += [setup_probe(root, env) for _ in range(SETUP_AFTER)]
    result = json.loads(out.strip().splitlines()[-1])
    result["report"]["setup_s_samples"] = setup
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["report"]["samples"]["setup_s"] = len(setup)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gmarginal", "__init__.py")):
        print("error: run from the root of a gmarginal checkout (src/gmarginal not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        result = run(args, root)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    measured = result["metrics"]
    missing = {m["name"] for m in declared} ^ set(measured)
    if missing:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    samples = result["report"].get("samples", {})
    table = dict(metrics)
    for name, value in result["report"].get("reported", {}).items():
        table[name] = {"value": value, "unit": REPORTED_UNITS[name] + "  [reported, no bound]"}
    for name, metric in table.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"{args.workload:16s} {name:40s} {metric['value']:14.6g} {metric['unit']}{count}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **result["report"]}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
