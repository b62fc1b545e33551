#!/usr/bin/env python3
"""Compare two fleet benchmark result files.

    python3 fleetbench/compare.py BASE.json NEW.json

Result files are what run.py writes to fleetbench/out/. Absolute numbers
are compared only when both runs have the same host fingerprint (CPU
model, nproc, SHA-256 backend, compiler, build type) and the same
workload: otherwise the verdict is "incomparable" (exit 3), never a
pass, so a slowdown that hits both sides of a ratio cannot hide behind
a host change. With matching fingerprints every metric is printed with
its change; an end-to-end metric that got worse by more than its
BENCHMARK.json bound is a regression (exit 1). A single pair of runs is
noisy: use the medians of several seeds for a claim.
"""
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if base["host"] != new["host"] or base["workload"] != new["workload"] \
            or base["trace"] != new["trace"]:
        print("incomparable: runs differ in host fingerprint, workload or "
              "trace mode")
        for key in ("workload", "trace"):
            if base[key] != new[key]:
                print(f"  {key}: {base[key]} vs {new[key]}")
        for key in sorted(set(base["host"]) | set(new["host"])):
            if base["host"].get(key) != new["host"].get(key):
                print(f"  host.{key}: {base['host'].get(key)!r} vs "
                      f"{new['host'].get(key)!r}")
        return 3

    spec = load(ROOT / "BENCHMARK.json")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressions = 0
    bm, nm = base["result"]["metrics"], new["result"]["metrics"]
    for name in sorted(set(bm) | set(nm)):
        if name not in bm or name not in nm:
            print(f"{name:40s} only in {'base' if name in bm else 'new'}")
            regressions += name in bounds
            continue
        b, n = bm[name]["value"], nm[name]["value"]
        change = (n - b) / b if b else float("inf") if n else 0.0
        verdict = ""
        if name in bounds:
            m = bounds[name]
            worse = -change if m["better"] == "higher" else change
            if worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
        print(f"{name:40s} {b:14.4f} -> {n:14.4f} {bm[name]['unit']:6s} "
              f"{change:+8.2%} {verdict}")
    for side, r in (("base", base), ("new", new)):
        if not r["result"]["correct"]:
            print(f"{side} run failed its output checks")
            regressions += 1
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
