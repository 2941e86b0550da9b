"""weilc benchmark: run one workload at one seed and print one JSON result.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 8 --trace 0

Run it from the repository root; weilc is imported from ``src/``.  The
workload's op list is fixed by (workload, seed, seconds): one round per
``ROUND_SECONDS`` of ``--seconds``, each round a fixed, seeded list of ops,
with no time box.  The ops run in fresh worker processes (``worker.py``),
one thread each, as one closed-loop caller.

Every time is the worker thread's CPU time, scaled to a reference machine
speed.  CPU time leaves out the stretches in which the machine ran
something else on the worker's vCPU.  The workers sample how fast the
machine runs a fixed pure-Python loop (``worker.calibrate``) around each
set-up and after every 5 ms of op time, and a time measured while that
loop ran k times slower than ``CAL_NOMINAL_NS`` is divided by k.  On a
shared machine whose speed drifts by tens of percent within seconds and
over minutes, this keeps two sets of runs comparable; the README gives
the figures.

``--trace 0`` runs the op list in one worker and ``SETUP_PROBES`` set-up-
only workers before and after it, and prints the end-to-end metrics;
``setup_s`` is the median set-up time over all of them.  ``--trace 1``
runs one traced pass, with the public functions of every weilc layer
wrapped, and one untraced pass, and prints the per-layer metrics with the
tracing overhead.

Either way a child process (``reference.py``) then checks the outputs
of the pass that wrote them (the measured or the traced one) against
sympy, mpmath or plain math; an op whose output disagrees counts as
failed, and ``correct`` is true exactly when no op failed.  The last line
of standard output is the result object.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verify", "weil_eval", "symbolic")
ROUND_SECONDS = 8
SETUP_PROBES = 4  # set-up-only workers before and again after the measured one
CAL_NOMINAL_NS = 250_000  # one calibration sample at the reference speed
CAL_WINDOW = 2  # calibration samples on each side of an op that scale it
# op_tail_ms is the highest percentile with TAIL_BEYOND ops beyond it: the
# latency of the (TAIL_BEYOND + 1)-th slowest op
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 150


def import_workloads(root: str):
    """Import the benchmark's workloads, and through it weilc, from the
    checkout at ``root``; None when the checkout has no weilc sources."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "weilc", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import weilc
    import workloads

    if not os.path.abspath(weilc.__file__).startswith(src + os.sep):
        return None
    return workloads


def worker(workload: str, seed: int, rounds: int, rundir: str, records=None,
           trace=False, smoke=False) -> dict:
    """Run one worker process to its end; returns its JSON line."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--rounds", str(rounds), "--tmpdir", rundir]
    if records:
        argv += ["--records", records]
    if trace:
        argv.append("--trace")
    if smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_outputs(wl, workload: str, records_path: str) -> set:
    """Indices of ops whose outputs the reference process rejects."""
    request = {"workload": workload, "records_path": records_path,
               "context": reference_context(wl, workload)}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "reference.py")],
        input=json.dumps(request), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference check failed:\n{proc.stderr}")
    failed = json.loads(proc.stdout)["failed"]
    for index, reason in failed[:10]:
        print(f"failed op {index}: {reason}", file=sys.stderr)
    return {index for index, _ in failed}


def reference_context(wl, workload: str) -> dict:
    if workload == "verify":
        return {"configs": wl.CONFIGS}
    if workload == "weil_eval":
        return {"presentations": {n: wl.PRESENTATIONS[n] for n in wl.WEIL_ALGEBRAS}}
    forms = {"w0": wl.FORM_W0, "a": wl.FORM_A, "b": wl.FORM_B, "c": wl.FORM_C}
    return {"forms": {k: [[list(i), t] for i, t in f.items()] for k, f in forms.items()},
            "field": list(wl.FIELD_X)}


def slowness(samples) -> float:
    """How many times slower than the reference speed the machine ran
    while the calibration samples were taken."""
    return statistics.median(samples) / CAL_NOMINAL_NS


def setup_time(out: dict) -> float:
    return out["setup_s"] / slowness(out["setup_calibration_ns"])


def scaled_latencies(out: dict) -> list:
    """The worker's op latencies in ns, each scaled by the slowness of the
    CAL_WINDOW calibration samples taken before it and after it."""
    at = [i for i, _ in out["calibration_ns"]]
    ns = [v for _, v in out["calibration_ns"]]
    scaled = []
    for i, v in enumerate(out["latencies_ns"]):
        j = bisect.bisect_right(at, i)
        scaled.append(v / slowness(ns[max(0, j - CAL_WINDOW):j + CAL_WINDOW]))
    return scaled


def end_to_end(measured: dict, setups: list) -> dict:
    """Metrics from the measured worker's JSON line and the set-up times."""
    lat = sorted(scaled_latencies(measured))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / (sum(lat) * 1e-9), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e-6, "ms"),
        "op_tail_ms": (lat[max(0, len(lat) - TAIL_BEYOND - 1)] * 1e-6, "ms"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
    }


def per_layer(traced: dict, plain: dict) -> dict:
    """Per-layer metrics of the traced pass, with the overhead against the
    untraced pass."""
    traced_lat = scaled_latencies(traced)
    # layer times are scaled by the traced pass's overall slowness
    k = sum(traced["latencies_ns"]) / sum(traced_lat)
    metrics = {}
    for name, value in traced["layers"].items():
        unit = _unit(name)
        metrics[name] = (value / k if unit in ("s", "us") else value, unit)
    traced_rate = len(traced_lat) / (sum(traced_lat) * 1e-9)
    plain_rate = len(plain["latencies_ns"]) / (sum(scaled_latencies(plain)) * 1e-9)
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead"] = (plain_rate / traced_rate, "ratio")
    return metrics


def _unit(metric: str) -> str:
    if metric.endswith((".calls", ".nodes", ".spans")):
        return "count"
    if metric.endswith((".share", "_ratio")):
        return "ratio"
    if ".us_per_call" in metric:
        return "us"
    return "s"


def run_workload(wl, workload: str, seed: int, rounds: int, trace: bool,
                 smoke: bool = False):
    """Run one workload and check its outputs; returns (metrics as
    {name: (value, unit)}, ops attempted, indices of failed ops)."""
    rundir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    records = os.path.join(rundir, "records.jsonl")
    try:
        # a first, discarded worker fills the bytecode and file caches
        worker(workload, seed, 0, rundir)
        if trace:
            traced = worker(workload, seed, rounds, rundir, records, trace=True, smoke=smoke)
            plain = worker(workload, seed, rounds, rundir, smoke=smoke)
            metrics, attempted = per_layer(traced, plain), len(traced["latencies_ns"])
        else:
            setups = [setup_time(worker(workload, seed, 0, rundir))
                      for _ in range(SETUP_PROBES)]
            measured = worker(workload, seed, rounds, rundir, records, smoke=smoke)
            setups.append(setup_time(measured))
            setups += [setup_time(worker(workload, seed, 0, rundir))
                       for _ in range(SETUP_PROBES)]
            metrics = end_to_end(measured, setups)
            attempted = len(measured["latencies_ns"])
        failed = check_outputs(wl, workload, records)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    wl = import_workloads(os.getcwd())
    if wl is None:
        print("perfbench: run from a weilc checkout (no src/weilc here)", file=sys.stderr)
        return 2
    rounds = max(1, round(args.seconds / ROUND_SECONDS))
    metrics, attempted, failed = run_workload(wl, args.workload, args.seed, rounds,
                                              bool(args.trace))
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
