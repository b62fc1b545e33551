#!/usr/bin/env python3
"""Fleet benchmark entry point.

Builds fleet_bench from the checkout's sources (CMake, Release build)
and runs one workload of it:

    python3 fleetbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/fleetbench (default: .bench_build/fleetbench); the
traced run's span file and every result file go to fleetbench/out/.
Extra arguments (--smoke, --wrong-expectation) are passed to fleet_bench.

fleet_bench's output is passed through unchanged: a human-readable report
and, as the last line, the JSON result. The exit code is fleet_bench's
(1 when an output check fails); 2 when the build fails or the run
overstays its time limit, with no result printed.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
RUN_LIMIT_S = 170


def fail(msg):
    print(f"fleetbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = target / "fleetbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "fleet_bench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return build_dir / "fleet_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    binary = build()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--out-dir", str(out_dir)] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"fleet_bench ran longer than {RUN_LIMIT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()

    # Keep the result with the host it was measured on: compare.py only
    # compares absolute numbers across equal fingerprints.
    lines = proc.stdout.splitlines()
    fingerprint = next((json.loads(l.split(" ", 1)[1]) for l in lines
                        if l.startswith("host_fingerprint ")), None)
    if lines and lines[-1].startswith("{") and fingerprint is not None:
        record = {"workload": args.workload, "seed": int(args.seed),
                  "seconds": float(args.seconds), "trace": int(args.trace),
                  "extra_args": extra, "host": fingerprint,
                  "result": json.loads(lines[-1])}
        name = (f"result-{args.workload}-seed{args.seed}"
                f"-trace{args.trace}.json")
        (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
