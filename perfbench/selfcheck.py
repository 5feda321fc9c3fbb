#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark, on small inputs.

Run from the repository root:

    python3 perfbench/selfcheck.py

Asserts that:
  * for every workload in BENCHMARK.json, an untraced run emits exactly
    the end_to_end metrics, each with its declared unit, and a traced run
    exactly the per_layer metrics;
  * a corrupted report byte (in a corpus or campaign run) or a wrong vacd
    reply (in the vacd probe of a traced run) makes the run fail instead
    of printing numbers.
Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
         "--small", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            proc, result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{label}: exit {proc.returncode}, no result\n"
                                f"{proc.stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{label}: not correct or has failures")
            want = {m["name"]: m["unit"] for m in declared}
            have = {k: v.get("unit") for k, v in result["metrics"].items()}
            if have != want:
                missing = sorted(set(want) - set(have))
                extra = sorted(set(have) - set(want))
                units = sorted(k for k in set(want) & set(have)
                               if want[k] != have[k])
                problems.append(f"{label}: missing {missing}, unexpected "
                                f"{extra}, wrong units {units}")
            print(f"ok: {label} emits {len(have)} metrics", flush=True)
    for workload, trace, fault in (("corpus", 0, "report"),
                                   ("campaign", 0, "report"),
                                   ("corpus", 1, "vacd")):
        proc, result = run(workload, trace, "--inject", fault)
        label = f"{workload} --trace {trace} --inject {fault}"
        if proc.returncode == 0 or result is not None:
            problems.append(f"{label}: the run did not fail")
        else:
            print(f"ok: {label} fails the run", flush=True)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
