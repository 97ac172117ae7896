#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  * a flipped known answer is caught: the run reports it as failed,
    prints correct=false and exits non-zero;
  * every job of every workload meets its known answer under a second
    seed;
  * the deterministic counts agree exactly across two traced runs with
    the same seed;
  * the printed metric names are exactly those BENCHMARK.json declares.

Exits 0 when all hold, 1 otherwise.
"""

import json
import subprocess
import sys

COMMAND = ["bash", "perfbench/run.sh"]
DETERMINISTIC = [
    "checker.probes",
    "enumerate.deltas",
    "explore.expanded",
    "config.transitions",
    "ivm.apply_calls",
]

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, *extra):
    args = COMMAND + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace), *extra,
    ]
    p = subprocess.run(args, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = sorted(m["name"] for m in spec["end_to_end"])
    per_layer = sorted(m["name"] for m in spec["per_layer"])

    code, result = run("scans", 1, 0, "--flip-answer", "scan_witness:tc/M")
    check(
        code != 0 and result is not None and not result["correct"]
        and result["failed"] > 0,
        "a flipped known answer (scans, scan_witness:tc/M) is caught",
    )

    for w in workloads:
        code, result = run(w, 2, 0)
        check(
            code == 0 and result["correct"] and result["failed"] == 0,
            f"{w}: every job meets its known answer under seed 2",
        )
        check(
            sorted(result["metrics"]) == end_to_end,
            f"{w}: --trace 0 prints exactly the end_to_end metrics",
        )

    for w in workloads:
        runs = [run(w, 7, 1) for _ in range(2)]
        check(
            all(code == 0 and r["correct"] for code, r in runs),
            f"{w}: traced runs meet their known answers",
        )
        a, b = (r["metrics"] for _, r in runs)
        check(
            all(a[k]["value"] == b[k]["value"] for k in DETERMINISTIC),
            f"{w}: deterministic counts agree across two traced runs "
            + ", ".join(f"{k}={a[k]['value']:g}" for k in DETERMINISTIC),
        )
        check(
            sorted(a) == per_layer,
            f"{w}: --trace 1 prints exactly the per_layer metrics",
        )

    print("selftest:", "FAILED " + str(len(failures)) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
