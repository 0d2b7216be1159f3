#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload runtime-stream|rack-heat \
        --seed N --seconds S --trace 0|1 [--plant-fault]

Run from the root of a checkout.  The script builds perfbench/perfbench.exe
with dune's release profile into _perfbench_build/, runs it, and prints its
report.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, the per-layer metrics with --trace 1 (spans are written to
.perfbench_out/).

Determinism gate: the program reports a digest of every simulated number
it produced, keyed by workload, seed and pass, rack or episode.  The
digests are kept in .perfbench_state/ per build of the program; a later
run of the same build and seed that produces a different digest fails.

--plant-fault (runtime-stream) flips one bit of a backed remote page after
the drain; the run must then report failed > 0 and correct = false.

Exit status: 0 when the outputs are correct; 1 when they are not, or when
the program cannot be built or run (then no result line is printed).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = "_perfbench_build"
STATE_DIR = ".perfbench_state"
SPANS_DIR = ".perfbench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ("runtime-stream", "rack-heat")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "--cache=disabled",
           "./perfbench/perfbench.exe"]
    # Keep the compilers' temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=dict(os.environ, TMPDIR=tmp), timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (exit %d)" % r.returncode)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    rows = bench["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def determinism_gate(result):
    """Compare this run's digests with earlier runs of the same build."""
    with open(EXE, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(STATE_DIR, "fingerprints-%s.json" % build_id)
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    mismatches = 0
    for key, digest in sorted(result.pop("fingerprints").items()):
        if key in known:
            result["attempted"] += 1
            if known[key] != digest:
                mismatches += 1
                print("CHECK FAILED: determinism across runs: %s" % key)
        else:
            known[key] = digest
    os.makedirs(STATE_DIR, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, sort_keys=True)
    os.replace(tmp, path)
    result["failed"] += mismatches


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-fault", action="store_true")
    args = ap.parse_args()

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.plant_fault:
        cmd.append("--plant-fault")
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPANS_DIR, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=170)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail("program exited %d" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(r.stdout)
        fail("no result line")
    print("\n".join(lines[:-1]))

    determinism_gate(result)
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (sorted(set(want) - set(got)),
                           sorted(set(got) - set(want)),
                           sorted(k for k in want if k in got
                                  and got[k] != want[k])))
    result["correct"] = result["failed"] == 0
    print("failed_ops_ratio: %d / %d" % (result["failed"], result["attempted"]))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
