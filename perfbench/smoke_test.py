#!/usr/bin/env python3
"""Smoke test of the perfbench harness on shrunken workloads.

    python3 perfbench/smoke_test.py

Run from the repository root (it builds through run.py). For every workload
in BENCHMARK.json it runs 200-request traces untraced and traced and checks
that the result line carries exactly the declared metrics with their units,
that the harness's own checks passed (staged pipeline == run_fleet_experiment,
traced == untraced, request accounting), and that both runs print the same
output digest. It also checks the failure paths: a fleet the planner cannot
place, an unknown workload and a malformed seed. Exits non-zero on the first
failed check.
"""
import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REQUESTS = 200


def run(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def check(cond, what):
    if not cond:
        sys.exit(f"FAIL: {what}")


def result(lines):
    check(lines, "no output")
    res = json.loads(lines[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"result keys {sorted(res)}")
    return res


def line(lines, prefix):
    found = [l for l in lines if l.startswith(prefix)]
    check(len(found) == 1, f"one '{prefix}' line in {lines[:-1]}")
    return found[0]


def check_metrics(res, declared, label):
    metrics = res["metrics"]
    check(set(metrics) == {m["name"] for m in declared},
          f"{label}: metric names differ: {sorted(metrics)}")
    for m in declared:
        got = metrics[m["name"]]
        check(set(got) == {"value", "unit"}, f"{label}: {m['name']} keys")
        check(got["unit"] == m["unit"],
              f"{label}: {m['name']} unit {got['unit']} != {m['unit']}")
        check(isinstance(got["value"], (int, float)) and
              math.isfinite(got["value"]), f"{label}: {m['name']} value")


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        digests = []
        for trace, declared in (("0", SPEC["end_to_end"]),
                                ("1", SPEC["per_layer"])):
            label = f"{workload} --trace {trace}"
            code, lines, err = run("--workload", workload, "--seed", "3",
                                   "--seconds", "1", "--trace", trace,
                                   "--requests", str(REQUESTS))
            check(code == 0, f"{label}: exit {code}\n{err[-2000:]}")
            res = result(lines)
            check(res["correct"] is True, f"{label}: checks failed: {lines}")
            check(res["attempted"] == REQUESTS and res["failed"] == 0,
                  f"{label}: attempted/failed {res['attempted']}/"
                  f"{res['failed']}")
            check_metrics(res, declared, label)
            check(re.fullmatch(rf"requests sent={REQUESTS} completed="
                               rf"{REQUESTS} failed=0 .*",
                               line(lines, "requests sent=")),
                  f"{label}: request counts")
            digests.append(line(lines, f"digest {workload} "))
            print(f"ok {label}")
        check(digests[0] == digests[1], f"{workload}: digests {digests}")

    code, lines, _ = run("--workload", "unplaceable", "--seed", "1",
                         "--seconds", "1", "--trace", "0",
                         "--requests", str(REQUESTS))
    check(code == 1, f"unplaceable: exit {code}")
    res = result(lines)
    check(res["correct"] is False and res["attempted"] == REQUESTS and
          res["failed"] == REQUESTS, f"unplaceable: {res}")
    print("ok planner-infeasible run")

    for args, what in ((("--workload", "nope"), "unknown workload"),
                       (("--seed", "12x"), "malformed seed")):
        argv = {"--workload": "chat", "--seed": "1", "--seconds": "1",
                "--trace": "0"}
        argv.update([args])
        code, lines, err = run(*[x for kv in argv.items() for x in kv])
        check(code == 2, f"{what}: exit {code}")
        check(not any(l.startswith("{") for l in lines),
              f"{what}: printed a result")
        check("usage:" in err, f"{what}: no usage message")
        print(f"ok {what}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
