#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--small]

Builds the library, the runner and the worker from source on first use
(into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then:

  * starts the runner SETUP_REPEATS times in set-up-only mode before the
    measured run, once for the measured run, and SETUP_REPEATS times
    after it; setup_s is the median of those set-up times, each taken
    from just before the process is spawned to the first timed step.
    Set-up times drift with the state of a shared host over seconds, so
    the repeats bracket the run rather than all preceding it;
  * prints, as the last line of standard output, one JSON object with
    the keys correct, attempted, failed and metrics. With --trace 0 the
    metrics are the end-to-end ones of BENCHMARK.json, with --trace 1
    the per-layer ones (from a run with tracing on, which also writes a
    Chrome trace next to the full report).

Every process of a run (set-ups, the runner, the fleet's workers) runs
on one CPU, the highest-numbered one this process may use. On a shared
virtual machine the hypervisor takes CPU time away from virtual CPUs in
episodes lasting minutes; a workload whose threads hand work to each
other across idle virtual CPUs then reads up to twice as slow, while one
that keeps a single CPU busy moves little. See perfbench/README.md.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_serial", "tenants_baco", "fleet_uniform",
             "fleet_checkpointed")
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then (re)build; output goes to stderr."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def run_once(argv):
    """Run the runner in its own process group; return its JSON line."""
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(argv + ["--spawn-ns", str(spawn_ns)],
                            stdout=subprocess.PIPE, start_new_session=True,
                            text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        # The runner waits for its worker processes; this only reaps what
        # a crashed or timed-out runner left behind in its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        raise RuntimeError("runner timed out: " + " ".join(argv))
    if proc.returncode != 0:
        raise RuntimeError("runner exited with %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("runner printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="a few benchmarks at short budgets (self-test)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build_dir()
    try:
        build(bdir)
    except (subprocess.SubprocessError, OSError) as e:
        log("build failed: %s" % e)
        return 3

    # After the build, which uses every CPU; inherited by every process
    # started below.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out_dir = os.path.join(bdir, "out")
    base = [os.path.join(bdir, "perfbench_runner"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--worker-cmd", os.path.join(bdir, "perfbench_worker"),
            "--out-dir", out_dir]
    if args.small:
        base.append("--small")
    def set_ups():
        return [run_once(base + ["--trace", "0", "--setup-only"])
                ["metrics"]["setup_s"]["value"]
                for _ in range(SETUP_REPEATS)]

    try:
        setups = set_ups()
        result = run_once(base + ["--trace", str(args.trace)])
        setups += set_ups()
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log("%s failed: %s" % (args.workload, e))
        return 1

    metrics = result["metrics"]
    setups.append(metrics["setup_s"]["value"])
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["setup_samples_s"] = setups
    full = os.path.join(out_dir, "report-%s-%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(full, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    try:
        chosen = {m["name"]: {"value": metrics[m["name"]]["value"],
                              "unit": m["unit"]} for m in wanted}
    except KeyError as e:
        log("runner did not report metric %s" % e)
        return 1
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
