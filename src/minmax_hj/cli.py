"""Command line entry points.

One ``argparse`` parser per program name and process: building it costs
more than ten times as much as parsing a command line with it. Every
output line is written whole and flushed at once, so stdout and stderr
keep their order.

Exit codes: 0 success, 1 interrupted (``Aborted!`` on stderr) or a
closed output pipe, 2 hypothesis failure (``HypothesisError``: an
unstable pair, a broken contact chain or an ordering violation, with a
``witness:`` line on stderr), 3 numerical failure (non-convergence,
scheme parameter out of range, an effective curve of the wrong shape,
any other package error), 4 config or run-dir errors (including usage
errors, such as a missing or unknown option, and a sweep-eps whose u0
has grid slopes off the p-axis).
"""

import argparse
import functools
import json
import os
import sys

from . import __version__
from .config import ExperimentConfig
from .errors import (ConfigError, HypothesisError, MinMaxHJError,
                     RunLockError)
from .harness import (gate_error, run_check, run_effective, run_plotdata,
                      run_sweep_eps)

EXIT_INTERRUPTED = 1
EXIT_HYPOTHESIS = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4


def _echo(line, stream):
    stream.write(line + "\n")
    stream.flush()


def _fail(code, kind, err):
    _echo(f"{kind}: {err}", sys.stderr)
    witness = getattr(err, "witness", None)
    if witness:
        _echo("witness: " + json.dumps(witness, default=str), sys.stderr)
    sys.exit(code)


def _guarded(fn):
    try:
        return fn()
    except HypothesisError as e:
        _fail(EXIT_HYPOTHESIS, "hypothesis failure", e)
    except (RunLockError, ConfigError) as e:
        _fail(EXIT_CONFIG, "config error", e)
    except MinMaxHJError as e:
        _fail(EXIT_NUMERICAL, "numerical failure", e)


def _load(args):
    cfg = _guarded(lambda: ExperimentConfig.from_yaml(args.config))
    if args.out is not None:
        cfg.output = args.out
    if args.seed is not None:
        if args.seed < 0:
            _fail(EXIT_CONFIG, "config error",
                  f"--seed: {args.seed} is negative")
        cfg.seeds = [args.seed]
    return cfg


def check(args):
    """Validate ordering, pair stability, contact-chain monotonicity,
    and thin level sets; write the manifest and stop."""
    cfg = _load(args)
    manifest = _guarded(lambda: run_check(cfg, out_dir=cfg.output))
    for name, ok in sorted(manifest["verdicts"].items()):
        _echo(f"{name}: {'pass' if ok else 'FAIL'}", sys.stdout)
    if gate_error(manifest):
        for name, ok in manifest["verdicts"].items():
            if not ok and manifest["witnesses"].get(name):
                _echo("witness[%s]: %s" % (
                    name, json.dumps(manifest["witnesses"][name],
                                     default=str)), sys.stderr)
        sys.exit(EXIT_HYPOTHESIS)


def effective(args):
    """Piece curves, nested formula curve, direct estimates, and the
    numeric-vs-formula comparison files."""
    cfg = _load(args)
    manifest = _guarded(lambda: run_effective(cfg, out_dir=cfg.output,
                                              force=args.force))
    _echo(f"max_abs_err: {manifest['max_abs_err']:.6g}", sys.stdout)


def sweep_eps(args):
    """Oscillatory vs homogenized evolution error across the eps
    schedule."""
    cfg = _load(args)
    manifest = _guarded(lambda: run_sweep_eps(cfg, out_dir=cfg.output,
                                              force=args.force))
    for eps, err in zip(cfg.eps_schedule, manifest["errors"]):
        _echo("eps=%g: err=%.6g" % (eps, err), sys.stdout)
    _echo(f"nonincreasing: {manifest['nonincreasing']}", sys.stdout)


def plotdata(args):
    """Emit gnuplot-style .dat files from a completed run directory."""
    for path in _guarded(lambda: run_plotdata(args.run_dir)):
        _echo(path, sys.stdout)


def _usage_error(message):
    """Every parser's ``error``: a usage error is a config error."""
    _fail(EXIT_CONFIG, "config error", message)


def _subparser(commands, name, fn):
    sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__,
                              add_help=False, allow_abbrev=False)
    sub.error = _usage_error
    sub.add_argument("--help", action="help",
                     help="show this message and exit")
    sub.set_defaults(run=fn)
    return sub


@functools.cache
def _parser(prog):
    parser = argparse.ArgumentParser(
        prog=prog, add_help=False, allow_abbrev=False,
        description="Min-max Hamiltonian experiments: hypothesis checks, "
        "effective curves, homogenization sweeps, plot data.")
    parser.error = _usage_error
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s, version {__version__}",
                        help="show the version and exit")
    parser.add_argument("--help", action="help",
                        help="show this message and exit")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, fn, force in (("check", check, False),
                            ("effective", effective, True),
                            ("sweep-eps", sweep_eps, True)):
        sub = _subparser(commands, name, fn)
        sub.add_argument("--config", required=True, help="experiment YAML")
        sub.add_argument("--out",
                         help="run directory (default: config output)")
        sub.add_argument("--seed", type=int,
                         help="override the seed list with one seed")
        if force:
            sub.add_argument("--force", action="store_true",
                             help="run despite failed hypotheses")
    _subparser(commands, "plotdata", plotdata).add_argument("run_dir")
    return parser


def main(args=None, prog_name=None):
    """Run one command line (``sys.argv[1:]`` by default) under the
    program name ``prog_name`` (by default the script's, as the console
    script's ``minmax-hj``): return on success, ``sys.exit`` with the
    command's exit code otherwise. An interrupt exits 1 after
    ``Aborted!`` on stderr, a closed output pipe exits 1 quietly; neither
    prints a traceback."""
    prog = prog_name or os.path.basename(sys.argv[0])
    try:
        parsed = _parser(prog).parse_args(args)
        parsed.run(parsed)
    except KeyboardInterrupt:
        _echo("", sys.stderr)
        _echo("Aborted!", sys.stderr)
        sys.exit(EXIT_INTERRUPTED)
    except BrokenPipeError:     # the reader went away, as in ``| head -1``
        # the interpreter flushes stdout once more on its way out, which
        # would fail again (exit 120); send what is left to devnull
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):
            fd = None           # a captured stream, with nothing to flush
        if fd is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        sys.exit(1)


if __name__ == "__main__":
    main(sys.argv[1:], prog_name="python -m minmax_hj.cli")
