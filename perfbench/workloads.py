"""The benchmark's workloads: which CLI commands each one runs, the
configs it generates, and how every command's outputs are checked.

Only ``check-media`` draws from the seed; the other three run shipped
configs (``effective-ell2`` on a generated but fixed p-axis) and ignore
it. The program only ever receives the generated config files.
"""

import hashlib
import itertools
import json
import math
import os
import random

import yaml

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = ("effective-base", "effective-ell2", "sweep-base", "check-media")
SEEDED = {"check-media"}

# Acceptance bounds of the shipped guarantees (see README).
EFFECTIVE_BOUND = {"effective-base": 2e-2, "effective-ell2": 3e-2}
SWEEP_EPS = [0.25, 0.125, 0.0625]
SWEEP_RATIO = 0.6

# ell2_strict on p in {-1.5, 0.28125, 2.0625}: p = 2.0625 is one of the
# four points whose first solve falls back to ~1.8e5 relaxation sweeps;
# the other two cost about 1 s together. The middle point is the closest
# to 0, so every piece curve and the family curve point the right way at
# both ends, as EffectiveCurve.validate requires. Known defect, left for
# a later change: thinning the shipped [-3, 3] axis to 9 or 17 points
# makes validate fail with "coercive curve does not rise at the ends",
# which escapes the CLI as a ValueError traceback instead of a
# documented exit code.
ELL2_AXIS = {"min": -1.5, "max": 2.0625, "count": 3}

VERDICTS = ("contact_monotonicity", "contact_monotonicity_strict",
            "level_set_thin", "ordering", "stable_pairs")


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Command:
    """One CLI invocation plus the checks its outputs must pass."""

    def __init__(self, name, argv, out_dir, kind, expect):
        self.name = name
        self.argv = argv
        self.out_dir = out_dir
        self.kind = kind
        self.expect = expect

    def check(self, code, stdout, stderr, tb):
        """Problems with one finished command (empty when correct), the
        manifest's file checksums, and the workload-level value it
        reports (max_abs_err or the eps error ratio), if any."""
        if tb is not None:
            return [f"traceback: {tb.strip().splitlines()[-1]}"], None, None
        want = self.expect.get("exit", 0)
        if code != want:
            return [f"exit code {code}, expected {want}: "
                    f"{stderr.strip()[-300:]}"], None, None
        mpath = os.path.join(self.out_dir, "manifest.json")
        with open(mpath) as fh:
            manifest = json.load(fh)
        problems = []
        files = manifest.get("files", {})
        if sorted(files) != sorted(self.expect["files"]):
            problems.append(f"manifest lists {sorted(files)}")
        for name, digest in files.items():
            if sha256(os.path.join(self.out_dir, name)) != digest:
                problems.append(f"{name}: checksum differs from manifest")
        value = None
        if self.kind == "effective":
            value = self._check_effective(stdout, problems)
        elif self.kind == "sweep-eps":
            value = self._check_sweep(problems)
        else:
            self._check_verdicts(stdout, stderr, manifest, problems)
        return problems, files, value

    def _rows(self, name):
        with open(os.path.join(self.out_dir, name)) as fh:
            header = fh.readline().strip().split(",")
            rows = [[float(v) for v in line.split(",")]
                    for line in fh if line.strip()]
        return header, rows

    def _check_effective(self, stdout, problems):
        header, rows = self._rows("compare.csv")
        if header[:4] != ["p", "numeric", "formula", "abs_err"]:
            problems.append(f"compare.csv header {header}")
            return None
        err = max(r[3] for r in rows)
        bound = self.expect["max_abs_err"]
        if not err <= bound:
            problems.append(f"max_abs_err {err:.3g} > {bound:g}")
        if "max_abs_err:" not in stdout:
            problems.append("no max_abs_err line on stdout")
        if self.expect.get("closed_form"):
            worst = max(abs(r[1] - max(abs(r[0]) - 0.5, 1.0)) for r in rows)
            if not worst <= bound:
                problems.append(f"numeric curve off the closed form "
                                f"max(|p| - 1/2, 1) by {worst:.3g}")
        return err

    def _check_sweep(self, problems):
        _, rows = self._rows("err_vs_eps.csv")
        eps = [r[0] for r in rows]
        errs = [r[1] for r in rows]
        if eps != SWEEP_EPS:
            problems.append(f"eps column {eps}")
            return None
        if not all(b < a for a, b in zip(errs, errs[1:])):
            problems.append(f"errors not strictly decreasing: {errs}")
        if not errs[-1] <= SWEEP_RATIO * errs[0]:
            problems.append(f"e(1/16) = {errs[-1]:.3g} > "
                            f"{SWEEP_RATIO} e(1/4) = {errs[0]:.3g}")
        return errs[-1] / errs[0]

    def _check_verdicts(self, stdout, stderr, manifest, problems):
        want = self.expect["verdicts"]
        if manifest.get("verdicts") != want:
            problems.append(f"verdicts {manifest.get('verdicts')}, "
                            f"expected {want}")
        lines = sorted(line for line in stdout.splitlines()
                       if line.split(":")[0] in VERDICTS)
        printed = [f"{k}: {'pass' if want[k] else 'FAIL'}"
                   for k in sorted(want)]
        if lines != printed:
            problems.append(f"printed verdicts {lines}")
        if self.expect["exit"] == 2 and "witness[" not in stderr:
            problems.append("no witness on stderr")


def _write_yaml(path, data):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)
    return path


def _effective(workload, root, work):
    if workload == "effective-base":
        config = os.path.join(root, "configs", "base_case.yaml")
    else:
        with open(os.path.join(root, "configs", "ell2_strict.yaml")) as fh:
            data = yaml.safe_load(fh)
        data["p_axis"] = dict(ELL2_AXIS)
        config = _write_yaml(os.path.join(work, "ell2_axis3.yaml"), data)
    out = os.path.join(work, "run")
    expect = {"files": ["compare.csv", "formula.csv", "numeric.csv"],
              "max_abs_err": EFFECTIVE_BOUND[workload],
              "closed_form": workload == "effective-base"}
    return [config], [Command(workload, ["effective", "--config", config,
                                         "--out", out],
                              out, "effective", expect)]


def _sweep(root, work):
    config = os.path.join(root, "configs", "base_case.yaml")
    out = os.path.join(work, "run")
    return [config], [Command("sweep-base", ["sweep-eps", "--config", config,
                                             "--out", out], out, "sweep-eps",
                              {"files": ["err_vs_eps.csv"]})]


def _piece(kind, center, offset):
    return {"profile": {"kind": kind, "center": center, "slope": 1.0,
                        "offset": offset},
            "coupling": "additive", "channel": 0}


def _verdicts(**fail):
    return {k: not fail.get(k, False) for k in VERDICTS}


# Families whose verdicts hold for every medium, because every piece
# couples additively to the same channel c(x): c shifts both sides of
# each comparison equally, so contact sets, boundary variations and
# ties are those of the medium-free profiles.
#   sym1:  |p| - 1 + c vs 1 - |p| + c; contact |p| = 1, both ends at c.
#   tie2:  adds |p| - 3 + c vs 3 - |p| + c; both chains tie exactly
#          (m = c at every level, M = 1 + c), so only strictness fails.
#   rise2: the shipped monotonicity fixture's shape: the level-2 contact
#          value is 3/2 + c > c, so the upper chain rises: exit 2.
#   skew1: |p - 1| + c vs 3 - |p + 1| + c; boundary values differ by 2,
#          so the pair is unstable: exit 2.
FAMILIES = {
    "sym1": ({"checks": [_piece("abs_shift", 0.0, -1.0)],
              "hats": [_piece("negated_abs", 0.0, 1.0)]},
             [-4.0, 4.0], 2049, _verdicts(), 0),
    "tie2": ({"checks": [_piece("abs_shift", 0.0, -1.0),
                         _piece("abs_shift", 0.0, -3.0)],
              "hats": [_piece("negated_abs", 0.0, 1.0),
                       _piece("negated_abs", 0.0, 3.0)]},
             [-4.0, 4.0], 2049,
             _verdicts(contact_monotonicity_strict=True), 0),
    "rise2": ({"checks": [_piece("abs_shift", 0.0, -1.0),
                          _piece("abs_shift", 0.0, -1.0)],
               "hats": [_piece("negated_abs", 0.0, 1.0),
                        _piece("negated_abs", 0.0, 4.0)]},
              [-6.0, 6.0], 3073,
              _verdicts(contact_monotonicity=True,
                        contact_monotonicity_strict=True), 2),
    "skew1": ({"checks": [_piece("abs_shift", 1.0, 0.0)],
               "hats": [_piece("negated_abs", -1.0, 3.0)]},
              [-4.0, 4.0], 2049, _verdicts(stable_pairs=True), 2),
}

# Media drawn per kind and family. A draw's parameters move the cost of
# its check by up to a fifth; two draws per kind and family average part
# of that out of a pass's mean cost.
DRAWS = 2

SHIPPED_FIXTURES = {
    "unstable_pair": (_verdicts(stable_pairs=True), 2),
    "monotonicity_violation": (_verdicts(contact_monotonicity=True,
                                         contact_monotonicity_strict=True), 2),
}


def _medium(kind, rng):
    if kind == "checkerboard":
        low = rng.uniform(-0.5, 0.5)
        channel = {"cell": 1.0 / rng.choice([2, 4, 5, 8, 16]), "low": low,
                   "high": low + rng.uniform(0.2, 1.0)}
    else:
        channel = {"freqs": [1.0, rng.uniform(1.2, 2.8)],
                   "amps": [rng.uniform(0.1, 0.5), rng.uniform(0.1, 0.5)],
                   "phases": [rng.uniform(0.0, 2 * math.pi)
                              for _ in range(2)],
                   "offset": rng.uniform(-0.5, 0.5)}
    return {"kind": kind, "period": 1.0, "dim": 1, "channels": [channel]}


def _media_configs(seed, work):
    """Write the seeded check-media configs; return (path, verdicts,
    exit code) for each."""
    rng = random.Random(seed)
    out = []
    for kind, fam, draw in itertools.product(
            ("checkerboard", "quasiperiodic"), FAMILIES, range(DRAWS)):
        family, box, n_p, verdicts, code = FAMILIES[fam]
        data = {
            "family": family,
            "medium": _medium(kind, rng),
            "solver": {"n": 256, "length": 1.0},
            "p_axis": {"min": -3.0, "max": 3.0, "count": 25},
            "lambda_schedule": [0.16, 0.08, 0.04],
            "eps_schedule": [0.25],
            "seeds": [rng.randrange(1 << 20) for _ in range(3)],
            "pairs": {"x_nodes": 32, "p_box": box, "n_p": n_p},
        }
        path = _write_yaml(os.path.join(work, f"{kind}_{fam}_{draw}.yaml"),
                           data)
        out.append((path, verdicts, code))
    return out


def _check_media(root, seed, work):
    items = _media_configs(seed, work)
    for name, (verdicts, code) in SHIPPED_FIXTURES.items():
        items.append((os.path.join(root, "configs", name + ".yaml"),
                      verdicts, code))
    configs, commands = [], []
    for path, verdicts, code in items:
        name = os.path.splitext(os.path.basename(path))[0]
        out = os.path.join(work, "run_" + name)
        configs.append(path)
        commands.append(Command(name, ["check", "--config", path,
                                       "--out", out], out, "check",
                                {"files": [], "verdicts": verdicts,
                                 "exit": code}))
    return configs, commands


def build(workload, seed, root, work):
    """Generate the workload's inputs under ``work``; return the config
    paths the program loads and the commands of one pass."""
    if workload in EFFECTIVE_BOUND:
        return _effective(workload, root, work)
    if workload == "sweep-base":
        return _sweep(root, work)
    if workload == "check-media":
        return _check_media(root, seed, work)
    raise KeyError(workload)
