#!/usr/bin/env python3
"""Rerun workloads and report how steady each end-to-end metric is.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs K] [--workloads a,b] [--seed0 N]
                                    [--other CHECKOUT] [--json OUT]
    python3 perfbench/steadiness.py --load OUT   # re-summarise saved runs

Runs every chosen workload K times through perfbench/run.py, each run
with its own seed, alternating the order of the workloads between
passes so slow drift of the host spreads over all of them. For every
end-to-end metric it prints the median, the first and third quartile
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median
against the metric's bound from BENCHMARK.json, and the share of failed
operations. It also prints the CPU time the host's hypervisor stole from
this machine during each workload's runs (the steal column of
/proc/stat, where the kernel reports it): a set whose runs lost CPU
that way measures the host as much as the program.

With --other, every run is paired with the same run (same workload,
seed and length) in a second checkout, alternating which side goes
first. It then prints both medians, the change of the second median
relative to the first against the bound, and how many pairs the second
checkout won. Use it to compare a parent commit with a change: pass the
parent as the first (this) checkout and the change as --other, or the
other way round.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def stolen_seconds():
    """Cumulative CPU seconds stolen from this machine, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_once(checkout, workload, seed, seconds, trace=0):
    stolen0 = stolen_seconds()
    out = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True, timeout=900)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    stolen1 = stolen_seconds()
    res["stolen_s"] = (None if stolen0 is None or stolen1 is None
                       else stolen1 - stolen0)
    return res


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(spec, base, other):
    """How much worse `other` is than `base`, as a share of base."""
    if not base:
        return 0.0
    d = (other - base) / base
    return d if spec["better"] == "lower" else -d


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--other", default="")
    ap.add_argument("--json", default="")
    ap.add_argument("--load", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    sides = [ROOT] + ([os.path.abspath(args.other)] if args.other else [])

    # runs[side][workload] = list of results
    runs = [{w: [] for w in workloads} for _ in sides]
    if args.load:
        with open(args.load) as f:
            saved = json.load(f)
        sides, runs = saved["sides"], saved["runs"]
        workloads = list(runs[0])
        args.runs = len(runs[0][workloads[0]])
    for k in range(0 if args.load else args.runs):
        order = workloads if k % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.seed0 + k
            side_order = range(len(sides))
            if k % 2 == 1:
                side_order = reversed(side_order)
            for s in side_order:
                res = run_once(sides[s], w, seed, seconds)
                runs[s][w].append(res)
                print("run %d %-18s seed %d side %d failed %d/%d "
                      "stolen %s s" %
                      (k, w, seed, s, res["failed"], res["attempted"],
                       res["stolen_s"]), file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print("\n== %s (%d runs, %.0f s each)" % (w, args.runs, seconds))
        for s, side in enumerate(sides):
            shares = sorted({r["failed"] / r["attempted"]
                             for r in runs[s][w]})
            stolen = [r.get("stolen_s") for r in runs[s][w]]
            stolen = ("%.1f s" % sum(stolen) if None not in stolen
                      else "not reported")
            print("  side %d failed share: %s; CPU stolen over the runs: %s"
                  % (s, shares, stolen))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            rows = []
            for s in range(len(sides)):
                vals = [r["metrics"][name]["value"] for r in runs[s][w]]
                rows.append(summary(vals) + (vals,))
            med, q1, q3, spread = rows[0][:4]
            flag = ""
            if spread > bound:
                flag, ok = "  SPREAD OVER BOUND", False
            elif spread > bound / 3:
                flag = "  (over a third of the bound)"
            print("  %-20s median %-12.6g Q1 %-12.6g Q3 %-12.6g "
                  "spread %6.2f%% bound %5.1f%%%s" %
                  (name, med, q1, q3, 100 * spread, 100 * bound, flag))
            if len(sides) == 2:
                med2 = rows[1][0]
                wins = sum(1 for a, b in zip(rows[0][4], rows[1][4])
                           if worse_by(m, a, b) < 0)
                d = worse_by(m, med, med2)
                print("  %-20s other median %-12.6g worse by %+6.2f%% "
                      "(bound %4.1f%%), other won %d/%d pairs%s" %
                      ("", med2, 100 * d, 100 * bound, wins, args.runs,
                       "  REGRESSION" if d > bound else ""))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"sides": sides, "runs": runs}, f)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
