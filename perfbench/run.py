#!/usr/bin/env python3
"""The granmine serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload mine_batch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --steady 10 [--workload W] [--seconds S] [--trace 0|1|both]
                             [--fixed-seed]
    python3 perfbench/run.py --selftest [--workload W]

Every mode first builds granmine_serve, granmine_cli and the
perfbench_loadgen load generator from source into .bench_build/perfbench
(perfbench/CMakeLists.txt). A run then hands over to perfbench_loadgen,
which spawns granmine_serve, drives it over loopback, checks every reply and
prints the metrics; the last stdout line is the JSON result. The workloads
are the ones BENCHMARK.json lists: mine_batch and stream_feed.

--steady N runs each workload (or --workload) N times with seeds 1..N
(with --fixed-seed, N times with --seed, which leaves out the variation
between seeds) and prints each run's figures with the host's CPU steal,
then, for every metric, the median, the quartiles and IQR/median: the
evidence for the bounds in BENCHMARK.json. With --trace both it also runs N traced runs and
prints the traced end-to-end medians next to the untraced ones, which is
the tracing overhead.

--selftest corrupts one expected reply and checks that the run reports it.
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
with open(os.path.join(REPO, "BENCHMARK.json")) as spec:
    SPEC = json.load(spec)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "granmine_serve", "granmine_cli", "perfbench_loadgen"],
                   stdout=sys.stderr, check=True)


def commit():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        if os.path.exists(os.path.join(REPO, ".git")):
            return subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    files = [os.path.join(REPO, "CMakeLists.txt")]
    for top in ("src", "examples"):
        files += glob.glob(os.path.join(REPO, top, "**", "*"), recursive=True)
    for path in sorted(f for f in files if os.path.isfile(f)):
        digest.update(os.path.relpath(path, REPO).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def loadgen(workload, seed, seconds, trace, selftest=False, echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    workdir = os.path.join(BUILD, "run-%d" % os.getpid())
    argv = [os.path.join(BUILD, "perfbench_loadgen"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--serve", os.path.join(BUILD, "granmine", "examples",
                                    "granmine_serve"),
            "--cli", os.path.join(BUILD, "granmine", "examples",
                                  "granmine_cli"),
            "--workdir", workdir, "--build-type", BUILD_TYPE,
            "--commit", commit()]
    if selftest:
        argv.append("--selftest")
    try:
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out = done.returncode, done.stdout
    except subprocess.TimeoutExpired as expired:
        code, out = 124, expired.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return code, out.splitlines()


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def steady(args):
    workloads = [args.workload] if args.workload else WORKLOADS
    traces = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]
    exit_code = 0
    for workload in workloads:
        runs = {0: [], 1: []}
        for trace in traces:
            seeds = ([args.seed] * args.steady if args.fixed_seed
                     else range(1, args.steady + 1))
            for seed in seeds:
                code, lines = loadgen(workload, seed, args.seconds, trace,
                                      echo=False)
                result = json.loads(lines[-1]) if code == 0 and lines else None
                if result is None or not result["correct"]:
                    print("%s seed %d trace %d: FAILED (exit %d)" %
                          (workload, seed, trace, code))
                    print("\n".join(lines[-6:]))
                    exit_code = 1
                    continue
                runs[trace].append({name: m["value"]
                                    for name, m in result["metrics"].items()})
                steal = [line.split("host steal ")[1].split(" ")[0]
                         for line in lines if "host steal " in line]
                print("%s seed %d trace %d: %s; host steal %s" % (
                    workload, seed, trace,
                    ", ".join("%s %.4g" % (name, value) for name, value in
                              sorted(runs[trace][-1].items())
                              if not name.startswith("traced.") and trace == 0
                              or name.startswith("traced.")),
                    steal[0] if steal else "?"))
                sys.stdout.flush()
        print("== %s: %d seed(s), %s s per run" %
              (workload, args.steady, args.seconds))
        print("%-36s %6s %14s %14s %14s %9s" %
              ("metric", "trace", "median", "q1", "q3", "iqr/med"))
        for trace in traces:
            if len(runs[trace]) < 2:
                continue
            for name in sorted(runs[trace][0]):
                values = [run[name] for run in runs[trace]]
                median, q1, q3, iqr = spread(values)
                print("%-36s %6d %14.4f %14.4f %14.4f %9.4f" %
                      (name, trace, median, q1, q3, iqr))
        if len(runs[0]) >= 2 and len(runs[1]) >= 2:
            print("tracing overhead (traced median / untraced median):")
            for name in END_TO_END:
                plain = statistics.median(run[name] for run in runs[0])
                traced = statistics.median(run["traced." + name]
                                           for run in runs[1])
                print("  %-20s untraced %12.4f  traced %12.4f  ratio %.3f" %
                      (name, plain, traced, traced / plain if plain else 0))
        sys.stdout.flush()
    return exit_code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", default="0", choices=["0", "1", "both"])
    parser.add_argument("--steady", type=int, default=0, metavar="N")
    parser.add_argument("--fixed-seed", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 2
    if args.steady:
        return steady(args)
    if args.selftest:
        code, _ = loadgen(args.workload or "stream_feed", args.seed,
                          min(args.seconds, 3), 0, selftest=True)
        return code
    if args.workload is None or args.trace == "both":
        parser.error("a run needs --workload and --trace 0 or 1")
    code, _ = loadgen(args.workload, args.seed, args.seconds, int(args.trace))
    return code


if __name__ == "__main__":
    sys.exit(main())
