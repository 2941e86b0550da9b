"""The benchmark's own tests: a smoke run of every workload, untraced and
traced, and negative controls that the reference checker must reject.

    python3 perfbench/selftest.py

Run it from the repository root.  The smoke run makes a few ops of each
workload end to end (set-up probe, ops, child-process reference check)
and requires zero failed ops and exactly the metric names listed in
``BENCHMARK.json``.  Each negative control appends a corrupted copy of a
real record (a coefficient perturbed by 1e-6 relative, a wrong verdict,
an extra report field, ...) and requires the checker to reject exactly
the corrupted records.  Exits 0 when every test passes.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import run

SEED = 7
REL = 1e-6  # relative perturbation of one coefficient


def _largest(records, kind, values):
    """(record, key) of the value of largest magnitude among the records
    of ``kind``; ``values(rec)`` yields (key, value) pairs."""
    best = max(((abs(v), k, key) for k, rec in enumerate(records) if rec["kind"] == kind
                for key, v in values(rec)), key=lambda t: t[0])
    return records[best[1]], best[2]


def _perturbed(rec, path):
    """Copy of ``rec`` with the number at ``path`` (a key sequence) scaled
    by 1 + REL."""
    out = copy.deepcopy(rec)
    box = out
    for key in path[:-1]:
        box = box[key]
    box[path[-1]] *= 1.0 + REL
    return out


def _with(rec, **changes):
    return {**copy.deepcopy(rec), **changes}


def _first(records, **match):
    return next(r for r in records if all(r.get(k) == v for k, v in match.items()))


def verify_controls(records):
    report_of = {id(r): json.loads(r["report"]) for r in records}
    extra = _first(records, suite="hom_laws")
    extra_report = dict(report_of[id(extra)], warning="unexpected field")
    resid = max((r for r in records if report_of[id(r)]["max_residual"] > 0),
                key=lambda r: report_of[id(r)]["max_residual"])
    resid_report = dict(report_of[id(resid)])
    resid_report["max_residual"] *= 1.0 + REL
    return {
        "non-Poisson bivector reported Poisson": _with(_first(records, pi="shifted3"), exit=0),
        "Poisson bivector reported non-Poisson": _with(_first(records, pi="canonical2"), exit=4),
        "report with an extra field": _with(
            extra, report=json.dumps(extra_report, sort_keys=True, indent=2) + "\n"),
        "repeated report with max_residual perturbed": _with(
            resid, report=json.dumps(resid_report, sort_keys=True, indent=2) + "\n"),
    }


def weil_eval_controls(records):
    real, _ = _largest(records, "eval_weil", lambda r: [(0, r["coeffs"][0])])
    nil, k = _largest(records, "eval_weil",
                      lambda r: [(k, c) for k, c in enumerate(r["coeffs"]) if k and r["taylor"]])
    return {
        "real part perturbed": _perturbed(real, ("coeffs", 0)),
        "nilpotent coefficient perturbed": _perturbed(nil, ("coeffs", k)),
    }


def symbolic_controls(records):
    def listed(rec):
        return enumerate(rec["value"])

    def form_values(rec):
        return [((key, k), v) for key, vs in rec["values"].items() for k, v in enumerate(vs)]

    d_rec, d_k = _largest(records, "diff", listed)
    j_rec, j_k = _largest(records, "jacobi", listed)
    f_rec, (f_key, f_k) = _largest(records, "forms", form_values)
    dd = _first(records, kind="forms", identity="dd")
    return {
        "derivative value perturbed": _perturbed(d_rec, ("value", d_k)),
        "Jacobiator value perturbed": _perturbed(j_rec, ("value", j_k)),
        "form coefficient perturbed": _perturbed(f_rec, ("values", f_key, f_k)),
        "round trip reported unequal": _with(_first(records, kind="roundtrip"), value=False),
        "d(d(w)) coefficient not zero": _with(dd, printed={"0,1,2": f"{REL}*x1"}),
    }


CONTROLS = {"verify": verify_controls, "weil_eval": weil_eval_controls,
            "symbolic": symbolic_controls}


def check_controls(wl, workload: str) -> list[str]:
    """Run the smoke ops, append corrupted copies of their records, and
    require the checker to reject exactly the copies."""
    tmp = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    path = os.path.join(tmp, "records.jsonl")
    try:
        run.worker(workload, SEED, 1, tmp, records=path, smoke=True)
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        controls = CONTROLS[workload](records)
        with open(path, "a", encoding="utf-8") as fh:
            for rec in controls.values():
                fh.write(json.dumps(rec) + "\n")
        failed = run.check_outputs(wl, workload, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    problems = []
    for k, name in enumerate(controls, start=len(records)):
        if k not in failed:
            problems.append(f"{workload}: negative control not rejected: {name}")
    for k in sorted(failed - set(range(len(records), len(records) + len(controls)))):
        problems.append(f"{workload}: smoke record {k} rejected")
    return problems


def check_smoke(wl, workload: str, expected: dict) -> list[str]:
    problems = []
    for trace, listed in ((False, expected["end_to_end"]), (True, expected["per_layer"])):
        metrics, attempted, failed = run.run_workload(wl, workload, SEED, 1, trace,
                                                      smoke=True)
        label = f"{workload} trace={int(trace)}"
        if not attempted or failed:
            problems.append(f"{label}: {len(failed)} of {attempted} ops failed")
        got = {k: u for k, (_, u) in metrics.items()}
        want = {m["name"]: m["unit"] for m in listed}
        if got != want:
            problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got.items()) ^ set(want.items()))}")
    return problems


def main() -> int:
    wl = run.import_workloads(os.getcwd())
    if wl is None:
        print("selftest: run from a weilc checkout (no src/weilc here)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    problems = []
    for workload in run.WORKLOADS:
        found = check_smoke(wl, workload, expected) + check_controls(wl, workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
