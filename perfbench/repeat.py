"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/repeat.py --workloads effective-base,sweep-base \
        --runs 10 [--trace 0|1] [--first-seed 1] [--record]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
with the run length from BENCHMARK.json. For each metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound.
``--record`` writes the environment and these figures into
perfbench/BASELINE.json, keeping its hand-written sections.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "BASELINE.json")


def run_once(command, workload, seed, seconds, trace):
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def environment():
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "threads": 1}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {}
    for workload in args.workloads.split(","):
        runs = [run_once(bench["command"], workload, args.first_seed + i,
                         bench["run_seconds"], args.trace)
                for i in range(args.runs)]
        bad = [r for r in runs if not r["correct"] or r["failed"]]
        stats = {}
        print(f"{workload}: {len(runs)} runs, {len(bad)} incorrect")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = stats[name] = dict(spread(values),
                                   unit=runs[0]["metrics"][name]["unit"])
            bound = bounds.get(name)
            flag = "" if bound is None or name == "setup_s" \
                or s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:40s} median {s['median']:.6g} {s['unit']}  "
                  f"IQR/median {s['spread']:.4f}"
                  f"{'' if bound is None else f'  bound {bound}'}{flag}")
            print("    " + " ".join(f"{v:.4g}" for v in values))
        sys.stdout.flush()
        results[workload] = {"runs": len(runs), "failed_runs": len(bad),
                             "metrics": stats}

    if args.record:
        with open(BASELINE) as fh:
            baseline = json.load(fh)
        baseline["environment"] = environment()
        key = "per_layer" if args.trace else "end_to_end"
        baseline.setdefault(key, {}).update(results)
        text = json.dumps(baseline, indent=2)
        # one line per metric
        text = re.sub(r'\{\s+"median"[^{}]*\}',
                      lambda m: " ".join(m.group(0).split()), text)
        with open(BASELINE, "w") as fh:
            fh.write(text + "\n")


if __name__ == "__main__":
    main()
