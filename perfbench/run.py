#!/usr/bin/env python3
"""The repository benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the benchmark harness (the
program's libraries from src/ plus perfbench/harness) into .bench_build/, or
$CARGO_TARGET_DIR when that is set, then runs one workload:

  wide-field  grid 2048^2, 3,584 visibilities; the grid FFT dominates
  dense-vis   grid 256^2, 1.78 M visibilities; the kernels dominate
  sharded     dense-vis through ShardedBackend with 2 worker processes
  daemon      closed loop of 2 clients (one per tenant) against an
              in-process idg-server; each job's OpenMP team is
              nproc / 2 threads (OMP_NUM_THREADS), see harness_env()

The operation is one imaging cycle (grid -> dirty image -> model grid ->
degrid) on the first three workloads and one job (submit -> terminal frame)
on daemon. --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 is a separate, traced run that reports its per-layer metrics and
writes spans.json, the program's idg-obs.json snapshot and host.json under
.bench_build/perfbench-out/. The harness also prints each workload's own
figures (cycle_s, grid_mvis_s, degrid_mvis_s, dirty_rel_l2, job_p50_s,
job_tail_s with its percentile, jobs_per_s, failed_frac, ...) by name and
unit; the last line of stdout is the JSON result.

The exit code is 0 only when every correctness check passed: dirty-image
l2 against a direct DFT, sharded == in-process synchronous, each daemon job
== a direct run_imaging_job, and the traced layer calls == the backend.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("wide-field", "dense-vis", "sharded", "daemon")
# A run must end within 180 s; a harness still running after this is hung.
HARNESS_TIMEOUT_S = 170
# server::ServerConfig's default max_running: the daemon runs this many jobs
# at once, each with its own OpenMP team.
DAEMON_MAX_RUNNING = 2


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        fail("no program sources (src/) beside perfbench/; run from a "
             "checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def harness_env(workload):
    """The harness's environment. The daemon's jobs get an OpenMP team of
    nproc / max_running threads each, so the running jobs fill the cores
    instead of oversubscribing them. With the default team (every core per
    job, so 8 threads on a 4-core host) the median job latency's IQR /
    median over runs was 0.12-0.37; with nproc / max_running, 0.04-0.07.
    That oversubscription is a defect of the server this workload does not
    measure. The other workloads keep the program's default thread
    settings; sharded must, to show its own oversubscription."""
    env = dict(os.environ)
    if workload == "daemon":
        cores = len(os.sched_getaffinity(0))
        env["OMP_NUM_THREADS"] = str(max(1, cores // DAEMON_MAX_RUNNING))
    return env


def expected_metrics(trace):
    """Metric names BENCHMARK.json asks for in this mode, when present."""
    spec = HERE.parent / "BENCHMARK.json"
    if not spec.is_file():
        return None
    entries = json.loads(spec.read_text())["per_layer" if trace else
                                           "end_to_end"]
    return [m["name"] for m in entries]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root / "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    # Relative, so the daemon's UNIX-domain socket path stays short.
    out_dir = pathlib.Path(os.path.relpath(root / "perfbench-out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")))
    result_path = out_dir / "result.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)
    try:
        # Shard workers die with the harness (a parent-death signal).
        proc = subprocess.run([str(binary), "--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace),
                               "--out", str(out_dir),
                               "--result", str(result_path)],
                              env=harness_env(args.workload), check=False,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the harness did not finish within {HARNESS_TIMEOUT_S} s")
    if not result_path.is_file():
        fail(f"the harness exited with {proc.returncode} and no result")
    result = json.loads(result_path.read_text())
    names = expected_metrics(args.trace)
    if names is not None and list(result["metrics"]) != names:
        fail(f"metrics {list(result['metrics'])} do not match BENCHMARK.json "
             f"{names}")
    print(json.dumps(result), flush=True)
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
