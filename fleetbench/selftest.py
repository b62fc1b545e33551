#!/usr/bin/env python3
"""Smoke-size self-test of the fleet benchmark.

    python3 fleetbench/selftest.py

Runs every workload of BENCHMARK.json at minimal fleet size with a fixed
seed through run.py, untraced and traced, and asserts that
  * the run passes its output checks and prints every end-to-end
    (untraced) or per-layer (traced) metric named in BENCHMARK.json, each
    with its unit;
  * the traced run writes its Chrome-trace span file;
  * a deliberately wrong expectation (--wrong-expectation) makes the run
    fail: non-zero exit and "correct": false, so the checks are live.
Exit code 0 when everything holds.
"""
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = "7"


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", "1", "--trace", trace, "--smoke",
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, proc.stdout


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for w in (x["name"] for x in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            rc, result, out = run(w, trace)
            expect(rc == 0 and result is not None and result["correct"],
                   f"{w} trace={trace}: passes its output checks")
            if result is None:
                continue
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                expect(got is not None and got.get("unit") == m["unit"],
                       f"{w} trace={trace}: metric {m['name']} [{m['unit']}]")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{w} trace={trace}: attempted >= 1, failed == 0")
            if trace == "1":
                span_file = HERE / "out" / f"trace-{w}-seed{SEED}.json"
                ok = span_file.exists() and \
                    json.loads(span_file.read_text())["traceEvents"]
                expect(bool(ok), f"{w}: span file {span_file.name} written")
        rc, result, _ = run(w, "0", "--wrong-expectation")
        expect(rc != 0 and result is not None and not result["correct"]
               and result["failed"] > 0,
               f"{w}: a wrong expectation fails the run")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
