#!/usr/bin/env python3
"""Repo benchmark: builds the VirtualWire libraries and the `vwbench` binary
from source, runs one workload at one seed, checks its outputs, and prints
one JSON result line last.

    python3 perfbench/run.py --workload tcp_bulk --seed 1 --seconds 45 --trace 0

Run it from the repo root.  --workload all runs both workloads in turn.
--trace 1 alternates untraced and traced rounds of the same workload and
reports per-layer metrics instead of end-to-end ones.  See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
WORKLOADS = ["tcp_bulk", "chaos_rether"]
EXPECTED = HERE / "expected.json"
TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds `vwbench` (always a Release build, the build
    the ROADMAP baseline used); returns its path or None."""
    bdir = OUT / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "Makefile").exists():  # not (successfully) configured
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "vwbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("perfbench: build step failed: %s" % e)
            return None
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return bdir / "vwbench"


def source_digest():
    """Content hash of the sources the benchmark builds (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if res.returncode == 0:
            return res.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_workload(binary, args, workload):
    """Runs one workload; prints its report and returns its result (a dict
    with the four result-line keys) or an exit code."""
    for d in ("traces", "logs", "results"):
        (OUT / d).mkdir(parents=True, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, args.seed, args.trace)
    trace_out = OUT / "traces" / (tag + ".json")
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(trace_out)]

    load_before = os.getloadavg()
    started = time.time()
    with open(OUT / "logs" / (tag + ".log"), "w") as errlog:
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=errlog,
                                 text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("perfbench: %s timed out after %d s" % (tag, TIMEOUT_S))
            return 4
    elapsed = time.time() - started
    load_after = os.getloadavg()

    lines = res.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        raw = None
    if res.returncode != 0 or raw is None:
        sys.stdout.write(res.stdout)
        log("perfbench: vwbench exited with %d without a result"
            % res.returncode)
        return res.returncode or 1
    for line in lines[:-1]:
        print(line)

    correct = raw["correct"]
    attempted, failed = raw["attempted"], raw["failed"]
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    want = expected.get(workload, {}).get(str(args.seed))
    if want is not None and want != raw["digest"]:
        print("# CHECK FAILED: output digest %s, expected %s for seed %d"
              % (raw["digest"], want, args.seed))
        correct, failed = False, attempted
    elif want is not None:
        print("# output digest matches the stored expectation for seed %d"
              % args.seed)
    if args.write_expected and raw["correct"]:
        expected.setdefault(workload, {})[str(args.seed)] = raw["digest"]
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")

    meta = {
        "workload": workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_revision": git_revision(), "source_digest": source_digest(),
        "build_type": raw["build_type"], "cxx_flags": raw["cxx_flags"].strip(),
        "compiler": raw["compiler"], "nproc": os.cpu_count(),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in load_after],
        "elapsed_s": round(elapsed, 3), "digest": raw["digest"],
        "problems": raw["problems"],
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": raw["metrics"]}
    (OUT / "results" / (tag + ".json")).write_text(
        json.dumps({"meta": meta, "result": result}, indent=2) + "\n")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"],
                    help="one workload, or both in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-expected", action="store_true",
                    help="store this seed's output digest in expected.json")
    args = ap.parse_args()

    binary = build()
    if binary is None or not binary.exists():
        return 2

    if args.workload != "all":
        result = run_workload(binary, args, args.workload)
        if isinstance(result, int):
            return result
        print(json.dumps(result))
        return 0

    # Both: each prints its own report and result line; the last line
    # sums them, with metric names prefixed by their workload.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(binary, args, workload)
        if isinstance(result, int):
            return result
        print(json.dumps(result))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][workload + "." + name] = m
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
