"""Command line entry points.

Every ``click.echo`` names its stream: click caches one it resolves,
keyed by itself, so a redirected stream would never be freed.

Exit codes: 0 success, 2 hypothesis failure (``HypothesisError``: an
unstable pair, a broken contact chain or an ordering violation, with a
``witness:`` line on stderr), 3 numerical failure (non-convergence,
scheme parameter out of range, an effective curve of the wrong shape,
any other package error), 4 config or run-dir errors (including a
sweep-eps whose u0 has grid slopes off the p-axis).
"""

import json
import sys

import click

from . import __version__
from .config import ExperimentConfig
from .errors import (ConfigError, HypothesisError, MinMaxHJError,
                     RunLockError)
from .harness import (gate_error, run_check, run_effective, run_plotdata,
                      run_sweep_eps)

EXIT_HYPOTHESIS = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4


def _fail(code, kind, err):
    click.echo(f"{kind}: {err}", file=sys.stderr)
    witness = getattr(err, "witness", None)
    if witness:
        click.echo("witness: " + json.dumps(witness, default=str),
                   file=sys.stderr)
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


def _load(config, out, seed):
    cfg = _guarded(lambda: ExperimentConfig.from_yaml(config))
    if out is not None:
        cfg.output = out
    if seed is not None:
        if seed < 0:
            _fail(EXIT_CONFIG, "config error", f"--seed: {seed} is negative")
        cfg.seeds = [seed]
    return cfg


def _common(fn):
    fn = click.option("--config", required=True,
                      type=click.Path(dir_okay=False),
                      help="experiment YAML")(fn)
    fn = click.option("--out", type=click.Path(file_okay=False),
                      help="run directory (default: config output)")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="override the seed list with one seed")(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Min-max Hamiltonian experiments: hypothesis checks, effective
    curves, homogenization sweeps, plot data."""


@main.command()
@_common
def check(config, out, seed):
    """Validate ordering, pair stability, contact-chain monotonicity,
    and thin level sets; write the manifest and stop."""
    cfg = _load(config, out, seed)
    manifest = _guarded(lambda: run_check(cfg, out_dir=cfg.output))
    for name, ok in sorted(manifest["verdicts"].items()):
        click.echo(f"{name}: {'pass' if ok else 'FAIL'}", file=sys.stdout)
    if gate_error(manifest):
        for name, ok in manifest["verdicts"].items():
            if not ok and manifest["witnesses"].get(name):
                click.echo("witness[%s]: %s" % (
                    name, json.dumps(manifest["witnesses"][name],
                                     default=str)), file=sys.stderr)
        sys.exit(EXIT_HYPOTHESIS)


@main.command()
@_common
@click.option("--force", is_flag=True, help="run despite failed hypotheses")
def effective(config, out, seed, force):
    """Piece curves, nested formula curve, direct estimates, and the
    numeric-vs-formula comparison files."""
    cfg = _load(config, out, seed)
    manifest = _guarded(lambda: run_effective(cfg, out_dir=cfg.output,
                                              force=force))
    click.echo(f"max_abs_err: {manifest['max_abs_err']:.6g}", file=sys.stdout)


@main.command("sweep-eps")
@_common
@click.option("--force", is_flag=True, help="run despite failed hypotheses")
def sweep_eps(config, out, seed, force):
    """Oscillatory vs homogenized evolution error across the eps
    schedule."""
    cfg = _load(config, out, seed)
    manifest = _guarded(lambda: run_sweep_eps(cfg, out_dir=cfg.output,
                                              force=force))
    for eps, err in zip(cfg.eps_schedule, manifest["errors"]):
        click.echo("eps=%g: err=%.6g" % (eps, err), file=sys.stdout)
    click.echo(f"nonincreasing: {manifest['nonincreasing']}", file=sys.stdout)


@main.command()
@click.argument("run_dir", type=click.Path(file_okay=False))
def plotdata(run_dir):
    """Emit gnuplot-style .dat files from a completed run directory."""
    written = _guarded(lambda: run_plotdata(run_dir))
    for path in written:
        click.echo(path, file=sys.stdout)


if __name__ == "__main__":
    main()
