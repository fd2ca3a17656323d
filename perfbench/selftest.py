#!/usr/bin/env python3
"""Self-test of the repository benchmark, at tiny input size.

    python3 perfbench/selftest.py

For every workload it runs the end-to-end run and checks that each
end-to-end metric of BENCHMARK.json is in the JSON result with its unit,
and that the full metric table prints by name with its unit.  It runs the
traced run and checks the same for every per-layer metric.  It then feeds
every correctness check a deliberately wrong expectation
(--corrupt-expectation) and checks that the run fails.  Last, it runs the
benchmark in a directory holding only BENCHMARK.json and perfbench/, where
it must exit non-zero without printing a result.  Exits 1 on any failure.
"""
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# the end-to-end table every run prints, name -> unit
TABLE = {
    "setup_s": "s",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "updates_per_s": "facts/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "explain_p50_ms": "ms",
    "explain_p99_ms": "ms",
    "reads_per_s": "ops/s",
    "peak_heap_mib": "MiB",
    "error_ratio": "ratio",
}

problems = []


def expect(ok, what):
    print(("  ok    " if ok else "  FAIL  ") + what, flush=True)
    if not ok:
        problems.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "2",
                             "--trace", str(trace), "--size", "tiny", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    result = None
    lines = p.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, result, p.stdout


def metrics_match(result, specs, label):
    for m in specs:
        got = (result or {}).get("metrics", {}).get(m["name"])
        expect(got is not None and got.get("unit") == m["unit"]
               and isinstance(got.get("value"), (int, float)),
               "%s: %s printed in %s" % (label, m["name"], m["unit"]))


workloads = [w["name"] for w in SPEC["workloads"]]
for w in workloads:
    print(w, flush=True)
    code, result, out = run(w, 0)
    expect(code == 0 and result is not None and result["correct"] is True,
           "%s: end-to-end run passes its check" % w)
    expect(result is not None and result["attempted"] >= 1 and result["failed"] == 0,
           "%s: ops attempted, none failed" % w)
    metrics_match(result, SPEC["end_to_end"], w)
    for name, unit in TABLE.items():
        expect(re.search(r"^\s+%s\s+\S+\s+%s\s" % (re.escape(name), re.escape(unit)), out, re.M)
               is not None, "%s: table line %s (%s)" % (w, name, unit))
    code, result, _ = run(w, 0, "--corrupt-expectation")
    expect(code != 0 and result is not None and result["correct"] is False,
           "%s: a wrong expectation fails the run" % w)

print("traced run", flush=True)
code, result, out = run(workloads[0], 1)
expect(code == 0 and result is not None and result["correct"] is True, "traced run passes its checks")
metrics_match(result, SPEC["per_layer"], "traced")
code, result, out = run(workloads[0], 1, "--corrupt-expectation")
expect(code != 0 and result is not None and result["correct"] is False,
       "traced: a wrong expectation fails the run")
expect(len(re.findall(r"check \S+\s+FAILED", out)) == len(workloads),
       "traced: every workload's check fails on a wrong expectation")

print("bare directory", flush=True)
bare = os.path.join(ROOT, ".perfbench-work", "bare")
shutil.rmtree(bare, ignore_errors=True)
os.makedirs(bare)
shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
for p in SPEC["paths"]:
    shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
code, result, _ = run(workloads[0], 0, cwd=bare)
expect(code != 0 and result is None, "bare directory: exits non-zero without a result")
shutil.rmtree(bare, ignore_errors=True)

print("%d problem(s)" % len(problems))
sys.exit(1 if problems else 0)
