"""One pass of a workload in a fresh process: the measured process.

    python3 perfbench/worker.py --workload W --seed N --rounds R --tmpdir DIR
                                [--records PATH] [--trace] [--smoke]

``run.py`` starts it from the checkout root.  The worker times its own
set-up, from before the first ``import weilc`` (only the standard library
is loaded then) to ready: imports, config loads, algebra builds and input
parsing.  It then runs the ops of R rounds one after another from this one
thread, each op only after the previous one returned (a closed loop with
one caller), writes each op's output to PATH between ops and outside
their timing, and prints one JSON line: the set-up time, the latency of
every op in ns, the calibration samples taken around the set-up and
between ops, and its own peak RSS.  With ``--trace`` the public
functions of every weilc layer are wrapped first, and the line also
holds the per-layer metrics.  With R = 0 it only sets up.

Every time here is this thread's CPU time (``time.thread_time_ns``).  The
program is single-threaded and computes without waiting, so that equals
its wall time, except for the stretches in which the machine ran something
else on its vCPU; those stay out.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
CAL_ITERATIONS = 3000
CAL_EVERY_NS = 5_000_000  # op time between two calibration samples
SETUP_CAL_SAMPLES = 5  # before and after a set-up


def calibrate() -> int:
    """CPU ns taken by a fixed pure-Python loop: one sample of how fast
    this machine runs interpreted code right now."""
    t0 = time.thread_time_ns()
    s = 0
    for i in range(CAL_ITERATIONS):
        s += i * i
    return time.thread_time_ns() - t0


def run_ops(ops, records_path, tracer=None):
    """Run ops in order; returns (per-op latencies in ns, calibration
    samples as (number of ops run before it, ns)).  A calibration sample
    is taken before the first op,
    after every CAL_EVERY_NS of op time and after the last op, between ops.
    Each op's output is converted and written out between ops, outside its
    timing, when ``records_path`` is given."""
    clock = tracer.clock if tracer else time.thread_time_ns
    root_id = tracer.name_id("bench.op") if tracer else None
    latencies = []
    samples = [(0, calibrate())]
    since = 0
    gc.collect()
    out = open(records_path, "w", encoding="utf-8") if records_path else None
    try:
        for op in ops:
            if since >= CAL_EVERY_NS:
                samples.append((len(latencies), calibrate()))
                since = 0
            if tracer:
                span = tracer.open(root_id)
            t0 = clock()
            result = op.run()
            t1 = clock()
            if tracer:
                tracer.close(span)
            if out:
                if tracer:
                    tracer.suspended = True
                out.write(json.dumps({"kind": op.kind, **op.record(result)}) + "\n")
                if tracer:
                    tracer.suspended = False
            latencies.append(t1 - t0)
            since += t1 - t0
    finally:
        if out:
            out.close()
    samples.append((len(latencies), calibrate()))
    return latencies, samples


def make_tracer(wl):
    """A tracer installed on every weilc layer and on the workloads module."""
    import weilc
    from tracer import LAYERS, Tracer

    tracer = Tracer({(g, r): name for name, (g, r) in wl.PRESENTATIONS.items()})
    modules = [getattr(weilc, layer) for layer in LAYERS] + [weilc, wl]
    classes = {"WeilElement": weilc.WeilElement, "AVectorField": weilc.AVectorField,
               "CoordForm": weilc.CoordForm}
    tracer.install(modules, classes)
    return tracer


def main(argv=None) -> int:
    setup_cal = [calibrate() for _ in range(SETUP_CAL_SAMPLES)]
    t0 = time.thread_time()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--rounds", required=True, type=int)
    parser.add_argument("--records", help="file for the ops' outputs")
    parser.add_argument("--tmpdir", required=True, help="directory for the ops' reports")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads as wl

    tracer = make_tracer(wl) if args.trace else None
    if tracer:
        span = tracer.open(tracer.name_id("bench.setup"))
    state = wl.setup(args.workload)
    if tracer:
        tracer.close(span)
    setup_s = time.thread_time() - t0
    setup_cal += [calibrate() for _ in range(SETUP_CAL_SAMPLES)]
    result = {"setup_s": setup_s, "setup_calibration_ns": setup_cal}
    if args.rounds:
        ops = wl.build_ops(args.workload, state, args.seed, args.rounds, args.tmpdir,
                           args.smoke)
        result["latencies_ns"], result["calibration_ns"] = run_ops(ops, args.records, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        from tracer import layer_metrics

        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, wl.PER_ALGEBRA, wl.SUITES)
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
