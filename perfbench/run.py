"""Benchmark of the minmax-hj CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every command goes through the ``minmax_hj.cli`` entry point in this
process (``SystemExit`` gives its exit code), with ``threads`` at its
default of 1, in a closed loop: one client, the next command starts when
the previous one ends. A pass runs each of the workload's commands once;
passes repeat until ``--seconds`` have elapsed (at least one pass).
Every command's outputs are checked (see workloads.py); a wrong output,
wrong exit code or traceback counts as a failed command.

--trace 0 reports the end-to-end metrics: set-up time (median of five
cold imports plus config loads, each in a fresh interpreter), the
median command cost in reference units (each command's time divided by
the machine's current speed, which pace.py samples during the run;
the median is over passes, of each pass's mean command cost) and peak
resident memory; the median wall time per command goes to stderr.
--trace 1 spends half the time untraced, which gives the median wall
time per command, and half with every layer wrapped (tracer.py),
reports the per-layer metrics per pass and the tracing overhead, and
fails the run unless traced and untraced commands wrote byte-identical
result files.

The last line of stdout is one JSON object; a readable report of every
metric goes to stderr.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from pace import Pace  # noqa: E402


def setup_seconds(configs):
    """Median of cold set-up samples, each in its own interpreter."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, probe, SRC, *configs],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def invoke(entry, argv, clock=time.perf_counter):
    """Run one CLI command in-process: (start, seconds, exit code,
    stdout, stderr, traceback text or None), timed on ``clock``."""
    out, err = io.StringIO(), io.StringIO()
    code, tb = 0, None
    t0 = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            entry(args=argv, prog_name="minmax-hj")
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else \
                (0 if stop.code is None else 1)
        except Exception:
            tb = traceback.format_exc()
    return t0, clock() - t0, code, out.getvalue(), err.getvalue(), tb


class Runner:
    """Runs passes over a workload's commands and checks their outputs.

    The first checksums seen for each command are the reference: a later
    run of the same command, traced or not, must write identical files.
    ``spans`` holds (start, seconds) of every command, on ``clock``.
    """

    def __init__(self, commands, clock=time.perf_counter):
        self.commands = commands
        self.clock = clock
        self.spans = []
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.values = []
        self.bytes_written = 0

    def run_pass(self, entry, times):
        for cmd in self.commands:
            t0, dt, code, out, err, tb = invoke(entry, cmd.argv, self.clock)
            times.append(dt)
            self.spans.append((t0, dt))
            self.attempted += 1
            try:
                problems, files, value = cmd.check(code, out, err, tb)
            except (OSError, ValueError, KeyError, IndexError) as bad:
                problems, files, value = [f"unreadable output: {bad!r}"], \
                    None, None
            if files is not None:
                ref = self.reference.setdefault(cmd.name, files)
                if files != ref:
                    problems.append("result checksums differ from the "
                                    "first (untraced) run of this command")
            if value is not None:
                self.values.append(value)
            if os.path.isdir(cmd.out_dir):
                self.bytes_written += sum(
                    os.path.getsize(os.path.join(cmd.out_dir, f))
                    for f in os.listdir(cmd.out_dir))
            self.problems += [f"{cmd.name}: {p}" for p in problems]
            self.failed += bool(problems)

    def run_for(self, entry, seconds, times):
        """Whole passes until ``seconds`` elapse; returns the pass count."""
        t0 = time.perf_counter()
        passes = 0
        while not passes or time.perf_counter() - t0 < seconds:
            self.run_pass(entry, times)
            passes += 1
        return passes


def tail(times):
    """Highest percentile with at least ten samples beyond it, as
    (seconds, percentile, sample count), or None under 11 samples."""
    n = len(times)
    if n < 11:
        return None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n, n


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "minmax_hj", "cli.py")):
        print(f"error: no minmax_hj sources under {SRC}; run from the "
              f"root of a minmax-hj checkout", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    configs, commands = workloads.build(args.workload, args.seed, ROOT, work)

    sys.path.insert(0, SRC)
    import minmax_hj
    import minmax_hj.cli

    report = {}
    if args.trace == 0:
        setup = setup_seconds(configs)
        pace = Pace()
        runner = Runner(commands, pace.clock)
        times = []
        wall = time.perf_counter()
        pace.start()
        try:
            passes = runner.run_for(minmax_hj.cli.main, args.seconds, times)
        finally:
            pace.stop()
        wall = time.perf_counter() - wall
        # check-media mixes commands whose costs differ several-fold, so a
        # median over single commands jumps between them; the median
        # over passes of a pass's mean command cost does not.
        cost = [dt / pace.reference(t0, t0 + dt) for t0, dt in runner.spans]
        n = len(commands)
        per_pass = [statistics.fmean(cost[k:k + n])
                    for k in range(0, len(cost), n)]
        metrics = {
            "setup_s": metric(setup, "s"),
            "cmd_ref.p50": metric(statistics.median(per_pass), "ref"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
        report["cmd_s.p50"] = (statistics.median(times), "s",
                               "wall time, sampling taken out")
        report["pace.reference_s"] = (
            statistics.median(pace.took), "s",
            f"median of {len(pace.took)} samples, "
            f"{100 * pace.stolen / wall:.1f}% of the run")
        t = tail(times)
        if t is not None:
            report["cmd_s.tail"] = (t[0], "s", f"p{t[1]:.1f} of {t[2]}")
    else:
        from tracer import Tracer
        runner = Runner(commands)
        untraced, traced = [], []
        runner.run_for(minmax_hj.cli.main, args.seconds / 2, untraced)
        tracer = Tracer()
        tracer.install(minmax_hj)
        try:
            entry = tracer.wrap("cli", minmax_hj.cli.main)
            before = runner.bytes_written
            passes = runner.run_for(entry, args.seconds / 2, traced)
        finally:
            tracer.restore()
        metrics = tracer.summary(passes)
        metrics["harness.bytes_written"] = metric(
            (runner.bytes_written - before) / passes, "B")
        metrics["cmd_s.p50"] = metric(statistics.median(untraced), "s")
        metrics["trace.cmd_s"] = metric(sum(traced) / passes, "s")
        metrics["trace.overhead_s"] = metric(
            statistics.median(traced) - statistics.median(untraced), "s")

    report["fail_frac"] = (runner.failed / runner.attempted, "1", "")
    if runner.values and args.workload in workloads.EFFECTIVE_BOUND:
        report["max_abs_err"] = (max(runner.values), "1", "from compare.csv")
    if runner.values and args.workload == "sweep-base":
        report["eps_err_ratio"] = (runner.values[0], "1",
                                   "e(1/16) / e(1/4)")

    print(f"workload {args.workload}  seed {args.seed}"
          f"{'' if args.workload in workloads.SEEDED else ' (unused)'}  "
          f"passes {passes}  commands {runner.attempted}", file=sys.stderr)
    for name, m in sorted(metrics.items()):
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for name, (value, unit, note) in sorted(report.items()):
        print(f"  {name:40s} {value:.6g} {unit} {note}", file=sys.stderr)
    for problem in runner.problems[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)

    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not runner.problems,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
