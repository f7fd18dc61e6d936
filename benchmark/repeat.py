#!/usr/bin/env python3
"""Run the benchmark repeatedly and judge how steady it is.

    python3 benchmark/repeat.py [--runs N] [--seconds S] [--trace 0|1]
                                [--workload W ...] [--seed-base B]
                                [--quick] [--record] [--baseline]

For every workload in BENCHMARK.json (or those named), runs the
benchmark's command N times, each with another seed, and prints per
metric the median, the quartiles and their distance as a share of the
median beside the metric's regression bound. Exits non-zero when a run is
incorrect, or when an end-to-end spread other than setup_s exceeds its
bound. --quick is the pre-commit pass: every workload once for one
second (a workload always finishes the unit of work it started), under
half a minute in all.

--record appends one line (commit, date, cores, rustc, seeds, every
metric's median, quartiles and values) to benchmark/results/history.jsonl;
--baseline also rewrites benchmark/results/baseline.json with it.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return result


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def tool_output(argv):
    try:
        return subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True).stdout.strip()
    except OSError:
        return ""


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed-base", type=int, default=20221122)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args()
    if args.quick:
        args.runs, args.seconds = 1, 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    seconds = args.seconds or manifest["run_seconds"]
    listed = manifest["per_layer"] if args.trace else manifest["end_to_end"]
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]

    entry = {
        "commit": tool_output(["git", "rev-parse", "--short", "HEAD"]),
        "uncommitted_changes": bool(tool_output(["git", "status", "--porcelain"])),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "cores": os.cpu_count(),
        "rustc": tool_output(["rustc", "--version"]),
        "executor": "vendored-stub",
        "link": "loopback",
        "seed_base": args.seed_base,
        "runs": args.runs,
        "seconds": seconds,
        "trace": args.trace,
        "workloads": {},
    }
    too_wide = []
    for workload in workloads:
        runs = [
            run_once(manifest["command"], workload, args.seed_base + i, seconds, args.trace)
            for i in range(args.runs)
        ]
        print(f"== {workload}: {args.runs} runs of {seconds} s, seeds from {args.seed_base}")
        entry["workloads"][workload] = {}
        for metric in listed:
            name = metric["name"]
            s = summarise([r["metrics"][name]["value"] for r in runs])
            entry["workloads"][workload][name] = {k: s[k] for k in ("median", "q1", "q3", "values")}
            bound = metric.get("bound")
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound:.2f}"
                if name != "setup_s" and s["spread"] > bound:
                    verdict += "  SPREAD EXCEEDS BOUND"
                    too_wide.append((workload, name))
                elif s["spread"] > bound / 3:
                    verdict += "  (above a third of the bound)"
            print(
                f"{name:<40} median {s['median']:>16.4f} {metric['unit']:<6}"
                f" q1 {s['q1']:>16.4f} q3 {s['q3']:>16.4f} spread {s['spread']:.4f}  {verdict}"
            )
            if bound is not None and args.runs > 1:
                print("    each run: " + " ".join(f"{v:.5g}" for v in s["values"]))

    if args.record or args.baseline:
        results = os.path.join(HERE, "results")
        os.makedirs(results, exist_ok=True)
        with open(os.path.join(results, "history.jsonl"), "a") as f:
            f.write(json.dumps(entry) + "\n")
        if args.baseline:
            with open(os.path.join(results, "baseline.json"), "w") as f:
                json.dump(entry, f, indent=1)
                f.write("\n")
    if too_wide:
        raise SystemExit(f"spread exceeds the bound for: {too_wide}")


if __name__ == "__main__":
    main()
