"""Steadiness check: two sets of runs of the same code, compared per metric.

    python3 perfbench/steady.py [--workloads verify,symbolic]

Run it from the repository root.  For every workload it runs ``run.py``
``RUNS`` times in each of two sets, each run with its own seed (set k uses
seeds ``1000*k + 1 ..``), with ``run_seconds`` and tracing off as in
``BENCHMARK.json``.  For each end-to-end metric it prints each set's
median and quartiles and the quartile spread as a share of the median,
then whether the sets agree: each spread within the metric's bound, the
second set's median not worse than the first's by more than the bound,
and the same share of failed ops in both sets.  The
raw results go to ``perfbench/out/steady-<time>.json``.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 900
RUNS = 10  # runs per set
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def compare(bench: dict, results: dict) -> bool:
    """Print the table for results[workload][set] = [run result, ...];
    True when every check holds."""
    ok = True
    for workload, sets in results.items():
        print(f"\n{workload}")
        shares = {f"{sum(r['failed'] for r in s)}/{sum(r['attempted'] for r in s)}"
                  for s in sets}
        print(f"  failed/attempted per set: {sorted(shares)}")
        if len(shares) > 1:
            ok = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            stats = [summary([r["metrics"][name]["value"] for r in s]) for s in sets]
            first = stats[0][0]
            line_ok = True
            cells = []
            for med, q1, q3, spread in stats:
                worse = sign * (med - first) / first
                if spread > bound or worse > bound:
                    line_ok = False
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:6.2%}"
                             f" worse {worse:+6.2%}")
            ok &= line_ok
            print(f"  {name:<12} {metric['unit']:<4} bound {bound:5.0%}  "
                  + "  |  ".join(cells) + ("  ok" if line_ok else "  EXCEEDS BOUND"))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = set(workloads) - set(names)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    results = {w: [] for w in workloads}
    for k in range(SETS):
        for w in workloads:
            results[w].append([])
        for seed in range(1000 * (k + 1) + 1, 1000 * (k + 1) + RUNS + 1):
            for w in workloads:
                results[w][k].append(run_once(w, seed, bench["run_seconds"]))
                print(f"set {k + 1} seed {seed} {w} done", file=sys.stderr, flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    ok = compare(bench, results)
    print(f"\nraw results: {path}\n{'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
