#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

One run (the last line of stdout is the result JSON):
    python3 bench/e2e/run.py --workload gcn_artist --seed 1 --seconds 15 --trace 0
Every workload once, then a table of every metric with its unit:
    python3 bench/e2e/run.py --seed 1 --seconds 15
Every workload for seeds S..S+N-1, saved as one record stamped with the host,
the backend and the git sha:
    python3 bench/e2e/run.py --runs 5 --seed 1 --out bench/e2e/results/a.json
Two records against the bounds in BENCHMARK.json:
    python3 bench/e2e/run.py --compare A.json B.json

The build goes to build-e2e/ under the checkout root, and run output (inputs,
Chrome traces) to build-e2e/out/.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "bench_e2e"
WORKLOADS = ["gcn_artist", "gin_ppi", "stream_ooc", "serve_proteins"]


def build():
    if not (ROOT / "src").is_dir():
        sys.exit("run.py: this checkout has no src/ directory to build")
    steps = [["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)]]
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def bench_cmd(workload, seed, seconds, trace):
    return [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (result, context) parsed from its stdout."""
    done = subprocess.run(bench_cmd(workload, seed, seconds, trace), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"run.py: {workload} seed {seed} printed no result "
                 f"(exit {done.returncode})")
    context = {}
    for line in lines:
        if line.startswith("# context "):
            context = json.loads(line[len("# context "):])
    return json.loads(lines[-1]), context


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def host_stamp():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git("rev-parse", "HEAD"),
        "src_dirty": git("status", "--porcelain", "--", "src") != "",
    }


def run_all(args):
    seeds = range(args.seed, args.seed + args.runs)
    record = {"stamp": host_stamp(), "seconds": args.seconds,
              "trace": args.trace, "runs": []}
    ok = True
    for seed in seeds:
        for workload in WORKLOADS:
            result, context = run_one(workload, seed, args.seconds, args.trace)
            ok = ok and result["correct"]
            record["runs"].append({"workload": workload, "seed": seed,
                                   "context": context, "result": result})
            print(f"== {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"   {name:34s} {m['value']:14.4f} {m['unit']}")
            sys.stdout.flush()
    if args.out:
        record["stamp"]["backend"] = record["runs"][0]["context"].get("backend")
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


def spread(values):
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def compare(path_a, path_b):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    metrics = spec["per_layer"] if a["trace"] else spec["end_to_end"]
    print(f"A: {path_a} ({a['stamp']['git_sha'][:12]})  "
          f"B: {path_b} ({b['stamp']['git_sha'][:12]})")
    print(f"{'workload':15s} {'metric':24s} {'median A':>12s} {'median B':>12s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    regressions = 0
    for workload in WORKLOADS:
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            va = [r["result"]["metrics"][name]["value"] for r in a["runs"]
                  if r["workload"] == workload]
            vb = [r["result"]["metrics"][name]["value"] for r in b["runs"]
                  if r["workload"] == workload]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            noise = max(spread(va), spread(vb))
            if bound is None:
                verdict = "-"
            elif noise > bound:
                all_better = (max(vb) < min(va) if m["better"] == "lower"
                              else min(vb) > max(va))
                verdict = "better" if all_better else "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"{workload:15s} {name:24s} {ma:12.4f} {mb:12.4f} "
                  f"{change:+8.1%} {noise:7.1%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6s}  {verdict}")
    return 1 if regressions else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    build()
    if args.workload:
        cmd = bench_cmd(args.workload, args.seed, args.seconds, args.trace)
        os.chdir(ROOT)
        os.execv(cmd[0], cmd)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
