"""End-to-end acceptance checks.

One test per shipped guarantee, each printing a single verdict line with
the measured quantity, its bound, and the elapsed time (visible under
``pytest -v -s``). Every check must stay inside its runtime budget; the
numeric bounds are the loose, contract-level ones, far above what the
implementation actually achieves.
"""

import time
from pathlib import Path

import numpy as np
import yaml

from minmax_hj.config import ExperimentConfig
from minmax_hj.effective import estimate_effective
from minmax_hj.family import LevelHamiltonian, Piece, reorder_family
from minmax_hj.harness import run_effective, run_sweep_eps
from minmax_hj.media import MediumSpec, sample_realization
from minmax_hj.profiles import AbsShift
from minmax_hj.solver import CellProblem, Grid, lf_update, solve_discounted

from _reference import nested_family_values
from conftest import piece_curve, random_family, random_piece, run_cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load_config(name, out_dir):
    with open(CONFIG_DIR / name) as fh:
        data = yaml.safe_load(fh)
    data["output"] = str(out_dir)
    return ExperimentConfig(data, source=name)


def sin_sq_realization():
    spec = MediumSpec("periodic", period=1.0,
                      channels=[{"formula": "sin_sq"}])
    return sample_realization(spec, 0)


def conclude(label, ok, measured, bound, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"\n{'PASS' if ok and elapsed <= budget else 'FAIL'} {label}: "
          f"{measured} (bound: {bound}) in {elapsed:.1f}s "
          f"(budget {budget:.0f}s)")
    assert ok, f"{label}: {measured} violates {bound}"
    assert elapsed <= budget, f"{label}: {elapsed:.1f}s over {budget:.0f}s"


def test_reordering_preserves_nested_values():
    t0 = time.perf_counter()
    spec = MediumSpec("periodic", period=1.0, channels=[
        {"formula": "sin_sq"},
        {"formula": "cos_sq", "amplitude": 0.5},
        {"formula": "sin_sq", "amplitude": 1.0, "offset": 0.5},
    ])
    medium = sample_realization(spec, 0)
    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(100):
        ell = int(rng.integers(1, 4))
        fam = random_family(rng, ell, medium)
        p = rng.uniform(-4, 4, 1000)
        x = rng.uniform(0, 1, 1000)
        cv = [pc.bind(x, medium)(p) for pc in fam.checks]
        hv = [pc.bind(x, medium)(p) for pc in fam.hats]
        want = nested_family_values(cv, hv, ell)
        got = LevelHamiltonian(reorder_family(fam)).bind_base(
            0.0, x, medium)((p,))
        mismatches += int(np.count_nonzero(got != want))
    conclude("running-extrema reordering (100 families x 1000 samples)",
             mismatches == 0, f"{mismatches} mismatches", "0 (exact)",
             t0, 30.0)


def test_base_family_curve_matches_closed_form(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config("base_case.yaml", tmp_path / "run")
    manifest = run_effective(cfg)
    rows = np.genfromtxt(tmp_path / "run" / "numeric.csv",
                         delimiter=",", skip_header=1)
    p, numeric = rows[:, 0], rows[:, 1]
    closed_form = np.maximum(np.abs(p) - 0.5, 1.0)
    err = float(np.max(np.abs(numeric - closed_form)))
    ok = err <= 2e-2 and manifest["max_abs_err"] <= 2e-2 and len(p) == 33
    conclude("base family vs closed form on 33 gradients",
             ok, f"max abs err {err:.3g}", "2e-2", t0, 60.0)


def test_two_level_formula_matches_numeric(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config("ell2_strict.yaml", tmp_path / "run")
    manifest = run_effective(cfg)
    ok = (manifest["max_abs_err"] <= 3e-2
          and manifest["verdicts"]["contact_monotonicity_strict"]
          and len(cfg.p_axis) == 33)
    conclude("two-level nested formula vs numeric on 33 gradients",
             ok, f"max abs err {manifest['max_abs_err']:.3g}", "3e-2",
             t0, 60.0)


def test_homogenization_error_decreases(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config("base_case.yaml", tmp_path / "run")
    manifest = run_sweep_eps(cfg)
    errs = manifest["errors"]
    ok = (cfg.eps_schedule == [0.25, 0.125, 0.0625]
          and manifest["strictly_decreasing"]
          and errs[2] <= 0.6 * errs[0])
    detail = ("e=" + "/".join("%.4f" % e for e in errs)
              + f", e(1/16)/e(1/4)={errs[2] / errs[0]:.3f}")
    conclude("oscillatory-to-homogenized convergence",
             ok, detail, "strictly decreasing, final ratio <= 0.6",
             t0, 600.0)


def test_negation_and_evenness_dualities():
    t0 = time.perf_counter()
    medium = sin_sq_realization()
    piece = Piece(AbsShift(1.0, 1.0, 0.0), "additive", 0)
    # -H(-p, x) and H(-p, x): the negated profile, scale and constant,
    # and the reflected profile
    duals = {"negation": (Piece(piece.profile.negate_dual(), "additive", 0,
                                -piece.scale, -piece.extra_const), 1.0),
             "evenness": (Piece(AbsShift(-1.0, 1.0, 0.0), "additive", 0),
                          -1.0)}
    axis = np.linspace(-2.0, 2.0, 9)
    schedule, grid = [0.1, 0.04, 0.02], Grid(512)
    reflected = estimate_effective(piece, -axis, medium, schedule, grid)
    ok, worst = True, {}
    for name, (dual, sign) in duals.items():
        est = estimate_effective(dual, axis, medium, schedule, grid)
        disc = np.abs(est["value"] + sign * reflected["value"])
        bars = est["error_bar"] + reflected["error_bar"]
        worst[name] = float(disc.max())
        ok = ok and bool(np.all(disc <= 2.0 * bars + 1e-12)) \
            and worst[name] <= 1.5e-2
    detail = (f"negation max {worst['negation']:.2e}, "
              f"evenness max {worst['evenness']:.2e}")
    conclude("duality discrepancies at 9 gradients",
             ok, detail, "<= 2x error bars and <= 1.5e-2", t0, 180.0)


def test_estimates_agree_with_separable_oracle():
    t0 = time.perf_counter()
    medium = sin_sq_realization()
    piece = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
    p = np.linspace(-3.0, 3.0, 33)
    oracle = piece_curve(piece, medium, p)
    grid = Grid(4096, 4.0)
    schedule = [0.1, 0.03, 0.01, 0.003]
    worst, covered = 0.0, True
    for i, pi in enumerate(p):
        est = estimate_effective(piece, [float(pi)], medium, schedule, grid)
        err = abs(est["value"][0] - oracle.values[i])
        worst = max(worst, err)
        covered = covered and err <= est["error_bar"][0] + 5e-3
    ok = worst <= 1e-2 and covered
    conclude("discounted estimates vs separable oracle on 33 gradients",
             ok, f"max abs err {worst:.3g}, bars cover: {covered}",
             "1e-2", t0, 180.0)


def test_solver_contract_probes():
    t0 = time.perf_counter()
    spec = MediumSpec("periodic", period=1.0, channels=[
        {"formula": "sin_sq"},
        {"formula": "cos_sq", "amplitude": 0.5},
        {"formula": "sin_sq", "amplitude": 1.0, "offset": 0.5},
    ])
    medium = sample_realization(spec, 0)
    grid = Grid(64)
    rng = np.random.default_rng(404)
    violations = 0
    for trial in range(100):
        tag = "quasiconvex" if trial % 2 == 0 else "quasiconcave"
        piece = random_piece(rng, medium, tag)
        p = float(rng.uniform(-2.0, 2.0))
        lam = float(rng.uniform(0.1, 0.5))

        # monotonicity: one relaxed Euler step preserves pointwise order
        theta = piece.lipschitz(medium)
        tau = 0.95 / (lam + theta / grid.h)
        h_bound = piece.bind_base(np.array([p]), grid.x, medium)
        v = rng.uniform(-1.0, 1.0, grid.shape)
        w = v + rng.uniform(0.0, 0.5, grid.shape)
        gv = v - tau * (lam * v + lf_update(h_bound, v, grid, theta))
        gw = w - tau * (lam * w + lf_update(h_bound, w, grid, theta))
        if not np.all(gw - gv >= -1e-12):
            violations += 1

        # comparison: lowering H by c raises v by c / lam
        c = float(rng.uniform(0.1, 1.0))
        sol, sol_info = solve_discounted(
            CellProblem(piece, [p], grid, medium), lam)
        lowered = Piece(piece.profile, piece.coupling, piece.channel,
                        piece.scale, piece.extra_const - c)
        low, low_info = solve_discounted(
            CellProblem(lowered, [p], grid, medium), lam)
        slack = (sol_info["tol"][0] + low_info["tol"][0]) / lam
        diff = low - sol
        if not (np.all(diff >= -slack)
                and np.allclose(diff, c / lam, atol=2 * slack + 1e-9,
                                rtol=0.0)):
            violations += 1

        # uniform bound: |lam v| never exceeds sup |H(p, .)|
        sup_h = float(np.max(np.abs(piece.bind(grid.x, medium)(p))))
        if float(np.max(np.abs(lam * sol))) > \
                sup_h + sol_info["tol"][0] + 1e-12:
            violations += 1
    conclude("solver monotonicity/comparison/bound probes (100 trials)",
             violations == 0, f"{violations} violations", "0", t0, 60.0)


def test_hypothesis_gate_exit_codes(tmp_path):
    t0 = time.perf_counter()
    unstable = run_cli([
        "check", "--config", str(CONFIG_DIR / "unstable_pair.yaml"),
        "--out", str(tmp_path / "a")])
    broken = run_cli([
        "check", "--config", str(CONFIG_DIR / "monotonicity_violation.yaml"),
        "--out", str(tmp_path / "b")])
    ok = (unstable.exit_code == 2
          and "stable_pairs: FAIL" in unstable.output
          and "variation" in unstable.stderr
          and broken.exit_code == 2
          and "contact_monotonicity: FAIL" in broken.output
          and '"chain": "upper"' in broken.stderr
          and '"index": 1' in broken.stderr)
    detail = (f"unstable exit {unstable.exit_code}, "
              f"chain-violation exit {broken.exit_code} with named index")
    conclude("hypothesis gate exits 2 with witnesses",
             ok, detail, "exit code 2 + witness in both cases", t0, 10.0)
