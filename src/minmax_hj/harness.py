"""Experiment runner behind the CLI.

Each command owns a run directory while it writes it (an ``flock`` on
``.lock``, which the kernel drops when the command exits or is killed),
writes result files with stable CSV schemas, and finishes with a
manifest recording the resolved config, the hypothesis block (verdicts,
witnesses as JSON data, contact constants), per-stage timings, and
sha256 checksums of every result file. Result files are deterministic
for a fixed config and seed set; timings live only in the manifest.

Once a command holds the lock it unlinks the old manifest, so a run
that fails or is killed leaves none, and every file of
``RESULT_FILES``, so the directory holds only its last command's
files. Every file it writes is made anew (``_recreate``), never
truncated or renamed over: on ext4 with its default ``auto_da_alloc``
each truncation to zero and each rename over an existing file forces
the new data to disk, which no command needs. ``plotdata`` takes the
lock too.

``sweep-eps`` marches the homogenized problem in a forked child beside
the eps stack (``fork_join``), and inline when the process may run on
one CPU only; the results are the same either way.
"""

import contextlib
import fcntl
import gc
import hashlib
import json
import os
import pickle
import signal
import time
import traceback
from collections import Counter

import numpy as np

from . import __version__
from .effective import (ALPHA_WINDOW, EffectiveCurve, estimate_effective,
                        piece_effective_curve, theorem_formula)
from .errors import (ConfigError, HypothesisError, NonConvergenceError,
                     RunLockError)
from .family import (LevelHamiltonian, PieceTable, ordering_message,
                     outermost_levels, validate_ordering)
from .media import sample_realization
from .pairs import check_condition_e, check_monotonicity, contact_fields
from .solver import (FALLBACK, Grid, solve_homogenized, solve_time_dependent,
                     upwind_diffs)

_G17 = "%.17g"

# every result file a command or plotdata writes
RESULT_FILES = ("numeric.csv", "formula.csv", "compare.csv",
                "err_vs_eps.csv", "hbar_curves.dat", "plateau.dat",
                "eps_loglog.dat")


class RunLock:
    """Exclusive ownership of a run directory while a command writes it.

    The owner holds an ``flock`` on ``<run dir>/.lock``, which the kernel
    releases when the owner exits or is killed, so a crashed run leaves
    no lock behind; the file holds the owner's pid for a human reader,
    written over the old one and cut to its length, never truncated to
    zero (see the module docstring). A directory that cannot be made,
    or whose lock is held, raises RunLockError.
    """

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, ".lock")

    def __enter__(self):
        try:
            os.makedirs(self.out_dir, exist_ok=True)
            # no O_TRUNC: a refused contender leaves the owner's pid
            fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
        except OSError as err:
            raise RunLockError(
                f"cannot lock run directory ({self.path}): "
                f"{err.strerror}") from None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # a finishing owner may have unlinked the file we opened
            held = not os.path.samestat(os.fstat(fd), os.stat(self.path))
        except (BlockingIOError, FileNotFoundError):
            held = True
        if held:
            os.close(fd)
            raise RunLockError(
                f"run directory is locked by another run ({self.path})")
        pid = str(os.getpid()).encode()
        os.pwrite(fd, pid, 0)
        os.ftruncate(fd, len(pid))      # a longer stale pid
        self.fd = fd
        return self

    def __exit__(self, *exc):
        # a .lock removed mid-run leaves nothing to unlink
        try:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.path)
        finally:
            os.close(self.fd)
        return False


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _recreate(path):
    """``path`` made anew and open for writing text: an old file there is
    unlinked, not truncated. Only the run lock's holder calls it."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    return open(path, "x")


def _write_manifest(out_dir, manifest):
    manifest = dict(manifest)
    manifest["tool_version"] = __version__
    manifest["files"] = {
        name: _sha256(os.path.join(out_dir, name))
        for name in sorted(manifest.get("files", []))}
    # written whole or not at all: a crash mid-write leaves no manifest
    # (the run lock makes this process the directory's only writer, and
    # _run has unlinked the old one, so the rename lands on a free name)
    tmp = os.path.join(out_dir, f".manifest.{os.getpid()}.tmp")
    try:
        with _recreate(tmp) as fh:
            # one write: json.dump writes each of the encoder's chunks
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, os.path.join(out_dir, "manifest.json"))
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return manifest


def _csv(path, header, rows):
    with _recreate(path) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(
                v if isinstance(v, str) else _G17 % v for v in row) + "\n")


def _curve_csv(path, curve):
    _csv(path, "p,value,error_bar,provenance",
         [(p, v, e, curve.provenance)
          for p, v, e in zip(curve.p, curve.values, curve.error_bars)])


def analyze_hypotheses(cfg):
    """Shared hypothesis stage: ordering, pair stability, contact chain
    monotonicity and thin level sets, all exact on one ``PieceTable`` of
    the whole sample (seeds that draw one medium share its rows): the
    pieces' coefficients on the distinct states of the exact piece
    curves' medium table, where an amplitude coefficient <= 0 fails as
    it does there. Returns verdicts and witnesses, plus the table, the
    ``contact_fields`` record (under "constants") and the first seed's
    medium, which the later stages reuse."""
    timings = {}
    t0 = time.perf_counter()
    realizations = [sample_realization(cfg.medium_spec, s) for s in cfg.seeds]
    table = PieceTable(cfg.family, realizations)
    ordering_witness = None
    try:
        validate_ordering(table)
    except HypothesisError as err:
        ordering_witness = err.witness
    timings["ordering"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    consts = contact_fields(table)
    stable = consts["all_pairs_stable"]
    timings["stable_pairs"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    mono = check_monotonicity(consts)
    mono_strict = check_monotonicity(consts, strict=True)
    # the level-1 contact values contact_fields already found
    cond_e = check_condition_e(table, consts["m_fields"][:, 0])
    timings["contact_chains"] = time.perf_counter() - t0

    verdicts = {
        "ordering": ordering_witness is None,
        "stable_pairs": stable,
        "contact_monotonicity": mono["monotone"],
        "contact_monotonicity_strict": mono_strict["monotone"],
        "level_set_thin": cond_e["holds"],
    }
    witnesses = {
        "ordering": ordering_witness,
        "stable_pairs": consts["witnesses"],
        "contact_monotonicity": mono["failures"],
        "level_set_thin": cond_e["witnesses"],
    }
    return {"verdicts": verdicts, "witnesses": witnesses, "table": table,
            "constants": consts, "medium0": realizations[0],
            "timings": timings}


def gate_error(report):
    """The hypothesis gate: the nested formula needs stable pairs,
    monotone contact chains and ordered pieces. ``report`` holds the
    "verdicts" and "witnesses" of ``analyze_hypotheses`` (an analysis or
    a check manifest). Returns None when all three hold, else the
    HypothesisError of the first that fails, in that order, whose
    witness is the one recorded for it."""
    v, w = report["verdicts"], report["witnesses"]
    if not v["stable_pairs"]:
        return HypothesisError("hypothesis gate: unstable pair",
                               w["stable_pairs"])
    if not v["contact_monotonicity"]:
        fail = w["contact_monotonicity"][0]
        return HypothesisError(
            f"hypothesis gate: {fail['chain']} contact chain not monotone "
            f"at level index {fail['index']}", w["contact_monotonicity"])
    if not v["ordering"]:
        at = w["ordering"]
        return HypothesisError(
            f"hypothesis gate: ordering violated: seed {at['seed']}: "
            f"{ordering_message(at)}", at)
    return None


def _contact_summary(consts):
    """The manifest's projection of the ``contact_fields`` record."""
    return {"m_bar": consts["m_bar"].tolist(),
            "M_lower": consts["M_lower"].tolist(),
            "seeds": consts["seeds"],
            "n_states": consts["n_states"],
            "stability_tolerance": consts["tolerance"],
            "n_unstable": consts["n_unstable"],
            "all_pairs_stable": consts["all_pairs_stable"],
            "witnesses": consts["witnesses"]}


def _run(cfg, out_dir, command, stages, force=True):
    """The frame every command shares. Make and lock the run directory,
    analyze the hypotheses, raise the gate's error unless ``force``
    (check forces, as it only reports the verdicts), run
    ``stages(analysis, out_dir, timings)``, and write the manifest:
    command, config, timings and the hypothesis block (verdicts,
    witnesses, contact constants), plus the keys ``stages`` returns (its
    result files among them). The old manifest goes first, so a run
    that stops before its own is written leaves none, and with it every
    file of ``RESULT_FILES``, which an earlier command may have left."""
    out_dir = out_dir or cfg.output
    with RunLock(out_dir):
        for name in ("manifest.json", *RESULT_FILES):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(out_dir, name))
        analysis = analyze_hypotheses(cfg)
        if not force and (err := gate_error(analysis)):
            raise err
        timings = dict(analysis["timings"])
        manifest = {
            "command": command, "config": cfg.raw, "timings": timings,
            "verdicts": analysis["verdicts"],
            "witnesses": analysis["witnesses"],
            "contact_constants": _contact_summary(analysis["constants"])}
        manifest.update(stages(analysis, out_dir, timings))
        return _write_manifest(out_dir, manifest)


def run_check(cfg, out_dir=None):
    """Pure hypothesis gate; writes only the manifest."""
    return _run(cfg, out_dir, "check", lambda *_: {"files": []})


def _numeric_curve(hamiltonian, cfg, medium):
    """Estimates on the p-axis as a coercive curve, checked for shape
    and, against the Hamiltonian's Lipschitz bound, for continuity."""
    grid = Grid(cfg.solver_n, cfg.solver_length)
    est = estimate_effective(hamiltonian, cfg.p_axis, medium,
                             cfg.lambda_schedule, grid)
    curve = EffectiveCurve(cfg.p_axis, est["value"], est["error_bar"],
                           "numeric")
    curve.validate(hamiltonian.lipschitz(medium))
    curve.intermediates["unreliable_p"] = curve.p[~est["reliable"]].tolist()
    curve.intermediates["estimates"] = est
    return curve


def _solver_stats(curve):
    """Solver telemetry of a numeric curve: discounted solves per solver
    path, the (p, lam) of every solve whose Newton iteration declined,
    and per gradient the Newton iterations summed over the schedule, the
    largest final residual, the fitted exponent and whether it sits at
    an end of the scanned window."""
    est = curve.intermediates["estimates"]
    method = est["method"]
    solves = dict(Counter(method.ravel().tolist()))
    fallbacks = [{"p": float(curve.p[i]), "lam": float(est["lams"][j])}
                 for i, j in np.argwhere(method == FALLBACK)]
    newton = np.char.startswith(method.astype(str), "newton")
    iterations = np.where(newton, est["iterations"], 0).sum(axis=1)
    alphas = [None if np.isnan(a) else a for a in est["alpha"].tolist()]
    per_p = [{"p": p, "newton_iterations": it, "max_residual": res,
              "alpha": a, "alpha_at_edge": a in ALPHA_WINDOW}
             for p, it, res, a in zip(curve.p.tolist(), iterations.tolist(),
                                      est["residual"].max(axis=1).tolist(),
                                      alphas)]
    return {"solves": solves, "fallbacks": fallbacks, "per_p": per_p}


def build_curves(cfg, table, consts):
    """The nested formula curve from the exact piece curves
    (``piece_effective_curve``, named check_k or hat_k in a shape error)
    of the pieces of ``table`` in its first medium and ``consts``, the
    ``contact_fields`` record."""
    inverse = table.inverse[0]
    checks, hats = ([piece_effective_curve(f, a[inverse], b[inverse],
                                           cfg.p_axis, f"{role}_{k} oracle")
                     for k, (f, a, b) in enumerate(rows, 1)]
                    for role, rows in (("check", table.checks),
                                       ("hat", table.hats)))
    return theorem_formula(checks, hats, consts)


def _one_seed(cfg, command):
    """The seeds of a command that solves in one medium: exactly one."""
    if len(cfg.seeds) > 1:
        raise ConfigError(
            f"seeds: {cfg.seeds} lists {len(cfg.seeds)} seeds, but "
            f"{command} solves in one medium; choose one with --seed")


def run_effective(cfg, out_dir=None, force=False):
    """Piece curves, nested formula, direct estimate, and comparison."""
    _one_seed(cfg, "effective")

    def stages(analysis, out_dir, timings):
        t0 = time.perf_counter()
        formula = build_curves(cfg, analysis["table"],
                               analysis["constants"])
        timings["piece_curves"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        h_top = LevelHamiltonian(cfg.family)
        numeric = _numeric_curve(h_top, cfg, analysis["medium0"])
        timings["numeric_estimates"] = time.perf_counter() - t0

        _curve_csv(os.path.join(out_dir, "numeric.csv"), numeric)
        _curve_csv(os.path.join(out_dir, "formula.csv"), formula)

        abs_err = np.abs(numeric.values - formula.values)
        inter_labels = [lab for lab in
                        sorted(formula.intermediates, key=float)
                        if float(lab) < cfg.family.ell]
        header = "p,numeric,formula,abs_err" + "".join(
            ",level_" + lab.replace(".", "_") for lab in inter_labels)
        columns = [cfg.p_axis, numeric.values, formula.values, abs_err]
        columns += [formula.intermediates[lab] for lab in inter_labels]
        _csv(os.path.join(out_dir, "compare.csv"), header, zip(*columns))

        return {
            "max_abs_err": float(abs_err.max()),
            "mean_abs_err": float(abs_err.mean()),
            "unreliable_p": numeric.intermediates["unreliable_p"],
            "solver_stats": _solver_stats(numeric),
            "files": ["numeric.csv", "formula.csv", "compare.csv"],
        }
    return _run(cfg, out_dir, "effective", stages, force)


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _child_main(child, wfd):
    """The forked child of ``fork_join``: run ``child``, write one pickle
    of ("ok", result) or ("error", exception, traceback text) to ``wfd``
    and leave by ``os._exit``, so that no ``finally`` block, atexit hook
    or stdio flush of the parent's runs here. Never returns."""
    status = 1
    try:
        gc.disable()        # no finalizer of an inherited object runs here
        # an orphan of a killed parent must not hold its run lock, whose
        # flock belongs to the open file description both share
        os.closerange(3, wfd)
        os.closerange(max(wfd + 1, 3), os.sysconf("SC_OPEN_MAX"))
        try:
            reply = ("ok", child())
        except Exception as err:
            reply = ("error", err, traceback.format_exc())
        view = memoryview(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        while view:
            view = view[os.write(wfd, view):]
        status = 0
    finally:
        os._exit(status)


def _child_result(name, data, status):
    """The result a ``fork_join`` child sent, or its exception raised
    again; a child that sent nothing whole raises NonConvergenceError
    naming its signal or exit status."""
    try:
        kind, value, *tb = pickle.loads(data)
    except Exception:
        if os.WIFSIGNALED(status):
            how = f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
        else:
            how = f"exited with status {os.waitstatus_to_exitcode(status)}"
        raise NonConvergenceError(
            f"{name}: its forked process {how} without a result") from None
    if kind == "error":
        raise value from RuntimeError(f"in the forked process:\n{tb[0]}")
    return value


def fork_join(name, child, parent):
    """``(child(), parent())``, with ``child`` run in a forked process
    beside ``parent`` here; inline, child first, when this process may
    run on one CPU only, where forking costs more than it saves.

    The child returns its result, or the exception it raised, through a
    pipe as one pickle and leaves by ``os._exit`` (``_child_main``): it
    never runs the parent's cleanup, such as the run lock's unlink, and
    first closes its other inherited descriptors, the run lock's too.
    ``child`` must not call BLAS or LAPACK, whose thread pools do not
    survive a fork. Errors come in the inline order, the child's first:
    when ``parent`` raises, the parent still waits for the child's
    result, so which error is reported does not depend on the CPU count.
    A child's exception is raised again with its class and message; a
    child that dies without a result raises NonConvergenceError naming
    ``name`` and the signal. An interrupt (any BaseException that is not
    an Exception) kills the child. The child is reaped on every path."""
    if _cpus() < 2:
        return child(), parent()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child_main(child, wfd)
    os.close(wfd)
    status = None
    try:
        with open(rfd, "rb") as pipe:
            try:
                mine = parent()
            except Exception:
                data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                _child_result(name, data, status)
                raise
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        return _child_result(name, data, status), mine
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _level_shares(cfg, snaps, grid, medium):
    """Per eps, the share of (sample time, node) pairs whose outermost
    value-changing level (``outermost_levels``) is k, for k = 1..ell, at
    the centered differences of the march's snapshots ``snaps``: the
    gradients its next step would evaluate."""
    if cfg.family.ell == 1:
        return [[1.0]] * len(cfg.eps_schedule)
    dp, dm = upwind_diffs(snaps, grid.h)
    x = grid.x / np.asarray(cfg.eps_schedule)[:, None]
    levels = outermost_levels(cfg.family, 0.5 * (dp + dm), x, medium)
    return [(np.bincount(levels[:, i].ravel(), minlength=cfg.family.ell + 1)
             [1:] / levels[:, i].size).tolist() for i in range(x.shape[0])]


def _slopes_on_axis(cfg):
    """The homogenized march reads the formula curve at the grid slopes
    of its solution, and a monotone scheme keeps those within the grid
    slopes of u0: all of them must lie on the p-axis, or the march runs
    on the curve's extension past it."""
    grid = Grid(cfg.solver_n, cfg.solver_length)
    u0 = cfg.u0_values(grid.x)
    slopes = (np.roll(u0, -1) - u0) / grid.h
    lo, hi = cfg.p_axis[0], cfg.p_axis[-1]
    if slopes.min() < lo or slopes.max() > hi:
        raise ConfigError(
            f"p_axis: [{lo:g}, {hi:g}] does not hold the grid slopes of "
            f"evolution.u0 {cfg.u0_name!r}, which reach "
            f"[{slopes.min():.6g}, {slopes.max():.6g}]; sweep-eps needs "
            f"the formula curve on all of them")


def run_sweep_eps(cfg, out_dir=None, force=False):
    """Oscillatory vs homogenized evolution over the eps schedule."""
    _one_seed(cfg, "sweep-eps")
    _slopes_on_axis(cfg)

    def stages(analysis, out_dir, timings):
        medium = analysis["medium0"]
        t0 = time.perf_counter()
        formula = build_curves(cfg, analysis["table"],
                               analysis["constants"])
        timings["effective_curve"] = time.perf_counter() - t0

        grid = Grid(cfg.solver_n, cfg.solver_length)
        u0 = cfg.u0_values(grid.x)
        h_top = LevelHamiltonian(cfg.family)

        def homogenized():
            t0 = time.perf_counter()
            hom, _ = solve_homogenized(formula, u0, grid, cfg.T,
                                       t_samples=cfg.t_samples)
            return hom, time.perf_counter() - t0

        def evolution():
            t0 = time.perf_counter()
            marched = solve_time_dependent(
                h_top, u0, cfg.eps_schedule, grid, medium, T=cfg.T,
                t_samples=cfg.t_samples)
            return marched, time.perf_counter() - t0

        # each march times itself, the homogenized one in its own process
        ((hom, timings["homogenized"]),
         ((osc, march), timings["evolution"])) = fork_join(
             "homogenized march", homogenized, evolution)
        # per eps, the largest gap over the sample times and the nodes
        errs = np.max(np.abs(osc - hom), axis=(0, 2)).tolist()
        shares = _level_shares(cfg, osc, grid, medium)
        march_stats = {
            "n_steps": march["n_steps"], "dt": march["dt"],
            "theta": march["theta"],
            "per_eps": [{"eps": float(eps), "k_bound": k, "err": err,
                         "level_share": s} for eps, k, err, s in zip(
                             cfg.eps_schedule, march["k_bound"].tolist(),
                             errs, shares)]}

        # a ratio to a zero error is undefined: null in the manifest,
        # which JSON has no NaN for, and nan in the CSV
        ratios = [errs[i + 1] / errs[i] if errs[i] > 0 else None
                  for i in range(len(errs) - 1)]
        rows = [[eps, err, float("nan") if ratio is None else ratio]
                for eps, err, ratio in zip(cfg.eps_schedule, errs,
                                           [None] + ratios)]
        _csv(os.path.join(out_dir, "err_vs_eps.csv"),
             "eps,err,ratio_to_prev", rows)
        return {
            "errors": errs,
            "ratios": ratios,
            "nonincreasing": all(b <= a for a, b in zip(errs, errs[1:])),
            "strictly_decreasing": all(b < a for a, b in zip(errs, errs[1:])),
            "march_stats": march_stats,
            "files": ["err_vs_eps.csv"],
        }
    return _run(cfg, out_dir, "sweep-eps", stages, force)


def _listed_text(run_dir, name, digest):
    """The text of the result file ``name``, whose sha256 the run's
    manifest lists as ``digest``; ConfigError if it differs."""
    path = os.path.join(run_dir, name)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror}, but the manifest "
                          f"lists it") from None
    if hashlib.sha256(data).hexdigest() != digest:
        raise ConfigError(f"{path}: sha256 differs from the manifest's; "
                          f"the file changed after its run")
    # a byte that is not UTF-8 becomes U+FFFD: no number parses with it
    return data.decode(errors="replace")


# the fields that begin the header of each CSV that plotdata reads, and
# whether more may follow (compare.csv's level columns)
PLOTTED_HEADERS = {
    "compare.csv": (["p", "numeric", "formula", "abs_err"], True),
    "err_vs_eps.csv": (["eps", "err", "ratio_to_prev"], False)}


def _csv_rows(path, text):
    """The header and rows of the plotted CSV at ``path``, blank lines
    skipped: the header holds its ``PLOTTED_HEADERS`` fields, and one row
    or more follow, each of the header's length and all numbers, or a
    ConfigError names the file and the line at fault."""
    head, more = PLOTTED_HEADERS[os.path.basename(path)]
    lines = [(i, line.strip().split(","))
             for i, line in enumerate(text.splitlines(), 1) if line.strip()]
    (at, header), *rows = lines or [(1, [])]
    if header[:len(head)] != head or len(header) > len(head) and not more:
        raise ConfigError(f"{path}: line {at}: the header is not "
                          f"{','.join(head)}{',...' * more}")
    if not rows:
        raise ConfigError(f"{path}: no row below the header")
    for at, row in rows:
        if len(row) != len(header):
            raise ConfigError(f"{path}: line {at}: {len(row)} fields, but "
                              f"the header has {len(header)}")
        try:
            list(map(float, row))
        except ValueError as err:
            raise ConfigError(f"{path}: line {at}: {err}") from None
    return header, [row for _, row in rows]


def run_plotdata(run_dir):
    """Derive gnuplot-style .dat files from a completed run directory,
    holding its run lock, so that no command replaces a CSV while it is
    read. Only the CSVs the run's manifest lists are read, each checked
    against its sha256 there. A missing directory raises ConfigError and
    is not made.

    Pure text transform of the CSVs, so reruns are byte-identical. Each
    CSV is checked (``_csv_rows``) before any .dat file is written.
    """
    nothing = ConfigError(f"{run_dir}: no compare.csv or err_vs_eps.csv "
                          f"listed in a manifest to plot")
    if not os.path.isdir(run_dir):
        raise nothing
    with RunLock(run_dir):
        path = os.path.join(run_dir, "manifest.json")
        try:
            with open(path) as fh:
                files = json.load(fh)["files"]
            if not isinstance(files, dict):
                raise TypeError(f"files is a {type(files).__name__}, "
                                f"not a map of names to sha256")
        except FileNotFoundError:
            raise nothing from None
        except (OSError, ValueError, KeyError, TypeError) as err:
            raise ConfigError(f"{path}: not a run manifest ({err!r})") \
                from None
        tables = {name: _csv_rows(os.path.join(run_dir, name),
                                  _listed_text(run_dir, name, files[name]))
                  for name in PLOTTED_HEADERS if name in files}
        if not tables:
            raise nothing
        return _plotdata(run_dir, tables.get("compare.csv"),
                         tables.get("err_vs_eps.csv"))


def _plotdata(run_dir, compare, sweep):
    """Write the .dat files of the (header, rows) of compare.csv and
    err_vs_eps.csv (None where the run has none); return their paths."""
    written = []
    if compare is not None:
        header, rows = compare
        path = os.path.join(run_dir, "hbar_curves.dat")
        with _recreate(path) as fh:
            fh.write("# " + " ".join(header) + "\n")
            for row in rows:
                fh.write(" ".join(row) + "\n")
        written.append(path)

        # flat stretches of the formula curve (3+ samples at one value)
        ps = np.array([float(r[0]) for r in rows])
        vals = np.array([float(r[2]) for r in rows])
        tol = 1e-9 * max(1.0, float(np.max(np.abs(vals))))
        path = os.path.join(run_dir, "plateau.dat")
        with _recreate(path) as fh:
            fh.write("# region p value\n")
            region = 0
            i = 0
            while i < len(vals):
                j = i
                while j + 1 < len(vals) and abs(vals[j + 1] - vals[i]) <= tol:
                    j += 1
                if j - i >= 2:
                    region += 1
                    for k in range(i, j + 1):
                        fh.write(("%d " + _G17 + " " + _G17 + "\n")
                                 % (region, ps[k], vals[k]))
                i = j + 1
        written.append(path)

    if sweep is not None:
        _, rows = sweep
        path = os.path.join(run_dir, "eps_loglog.dat")
        with _recreate(path) as fh:
            fh.write("# eps err log10_eps log10_err\n")
            for row in rows:
                eps, err = float(row[0]), float(row[1])
                fh.write((" ".join([_G17] * 4) + "\n")
                         % (eps, err, np.log10(eps),
                            np.log10(err) if err > 0 else float("-inf")))
        written.append(path)
    return written
