"""Grid solvers: exact constant cases, oracle comparisons, probes."""

from pathlib import Path

import numpy as np
import pytest

from minmax_hj import solver
from minmax_hj.config import ExperimentConfig
from minmax_hj.effective import EffectiveCurve
from minmax_hj.errors import NonConvergenceError, SchemeParameterError
from minmax_hj.family import CombinedPiece, LevelHamiltonian, Piece
from minmax_hj.media import MediumSpec, sample_realization
from minmax_hj.profiles import AbsShift, PiecewiseMonotone
from minmax_hj.solver import (RETRY, Grid, lf_update, prolong_periodic,
                              solve_discounted, solve_homogenized,
                              solve_time_dependent)

from _reference import hopf_lax_abs, lf_march

ABS = Piece(AbsShift(0.0, 1.0, 0.0), None)  # H(p) = |p|, medium-free
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class _Curve:
    """Minimal gradient-only Hamiltonian for the homogenized driver."""

    def __init__(self, fn, lip):
        self.fn = fn
        self.lip = lip

    def evaluate(self, q):
        return self.fn(np.asarray(q, dtype=float))

    def lipschitz(self):
        return self.lip


def _relaxed(ham, p, lam, grid, medium, tol, theta=None):
    """The relaxation reference: the discounted solution by monotone
    pseudo-time relaxation alone, on the whole grid."""
    theta = ham.lipschitz(medium) if theta is None else theta
    cell = solver._CellProblem(ham, np.array([p], dtype=float).reshape(1, 1),
                               grid, medium, lam, theta)
    out, _, _ = solver._relax_projected(cell, np.arange(1),
                                        np.zeros((1, grid.n)),
                                        np.array([tol]))
    return out[0]


class TestGrid:
    def test_axes_and_spacing(self):
        g = Grid(64, length=4.0)
        assert g.h == 0.0625
        assert g.x[0] == 0.0 and g.x[-1] == 4.0 - 0.0625

    def test_rejects_small_and_odd_dims(self):
        with pytest.raises(SchemeParameterError):
            Grid(8)


class TestDiscounted:
    def test_zero_base_gradient_zero_solution(self):
        g = Grid(64)
        out = solve_discounted(ABS, [0.0], 0.1, g)
        assert not np.any(out.values)
        assert out.metadata["iterations"] == 0

    def test_constant_solution_for_x_independent(self):
        g = Grid(64)
        lam = 0.05
        out = solve_discounted(ABS, [0.7], lam, g)
        assert np.allclose(out.values, -0.7 / lam, atol=1e-10, rtol=0.0)
        assert out.metadata["method"] == "constant"
        # -lam * v recovers H(p0) at every node
        assert np.allclose(-lam * out.values, 0.7, atol=1e-11, rtol=0.0)

    def test_residual_certified(self, sin_sq_medium):
        piece = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        g = Grid(128)
        out = solve_discounted(piece, [1.0], 0.1, g, sin_sq_medium)
        assert out.metadata["residual"] <= out.metadata["tol_fp"]
        lam_v = 0.1 * np.abs(out.values)
        assert lam_v.max() <= 1.0 + 1.0 + 1e-6  # sup |p0| + sup sin^2

    def test_discount_refinement_approaches_cell_limit(self, sin_sq_medium):
        # H = |p| + sin^2(pi x), p0 = 1: the cell limit is 3/2
        piece = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        g = Grid(512)
        vals = []
        warm = None
        for lam in (1e-1, 3e-2, 1e-2):
            out = solve_discounted(piece, [1.0], lam, g, sin_sq_medium,
                                   v0=warm)
            warm = out.values
            vals.append(float(-lam * out.values[0]))
        errs = [abs(v - 1.5) for v in vals]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 0.05

    def test_warm_start_agrees_with_cold(self, sin_sq_medium):
        piece = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        g = Grid(64)
        cold = solve_discounted(piece, [0.5], 0.2, g, sin_sq_medium)
        warm = solve_discounted(piece, [0.5], 0.2, g, sin_sq_medium,
                                v0=cold.values + 0.3)
        tol = cold.metadata["tol_fp"]
        assert np.max(np.abs(cold.values - warm.values)) <= 2 * tol / 0.2

    def test_max_iter_exhausted_raises_with_history(self, sin_sq_medium,
                                                    monkeypatch):
        piece = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        monkeypatch.setattr(solver, "MAX_SWEEPS", 5)
        with pytest.raises(NonConvergenceError) as exc:
            _relaxed(piece, 1.0, 1e-3, Grid(256), sin_sq_medium, 1e-8)
        assert len(exc.value.residual_history) >= 1

    def test_relax_and_newton_agree(self, sin_sq_medium):
        piece = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        g = Grid(64)
        lam = 0.2
        a = solve_discounted(piece, [0.8], lam, g, sin_sq_medium)
        assert a.metadata["method"] == "newton"
        tol = a.metadata["tol_fp"]
        b = _relaxed(piece, 0.8, lam, g, sin_sq_medium, tol)
        assert np.max(np.abs(a.values - b)) <= 2 * tol / lam

    def test_lambda_must_be_positive(self):
        with pytest.raises(SchemeParameterError):
            solve_discounted(ABS, [0.5], 0.0, Grid(64))


class TestNestedStart:
    """Cold 1-D Newton solves start from the same problem solved on
    coarser grids. On ell2_strict at p = 2.0625, lam = 0.1 Newton from
    zero stalls where the corrector switches between min and max
    branches."""

    P0, LAM = [2.0625], 0.1

    @pytest.fixture(scope="class")
    def ell2(self):
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "ell2_strict.yaml")
        return (LevelHamiltonian(cfg.family, cfg.family.ell),
                sample_realization(cfg.medium_spec, cfg.seeds[0]),
                cfg.theta)

    @pytest.mark.parametrize("n", [256, 4096])
    def test_newton_converges_where_zero_start_stalls(self, ell2, n):
        ham, medium, theta = ell2
        out = solve_discounted(ham, self.P0, self.LAM, Grid(n, length=4.0),
                               medium, theta)
        assert out.metadata["method"] == "newton"
        assert out.metadata["residual"] <= out.metadata["tol_fp"]

    def test_newton_agrees_with_relaxation(self, ell2):
        ham, medium, theta = ell2
        g = Grid(256, length=4.0)
        a = solve_discounted(ham, self.P0, self.LAM, g, medium, theta)
        assert a.metadata["method"] == "newton"
        tol = a.metadata["tol_fp"]
        b = _relaxed(ham, self.P0[0], self.LAM, g, medium, tol, theta)
        assert np.max(np.abs(a.values - b)) <= 2 * tol / self.LAM

    @pytest.mark.parametrize("n", [96, 100, 384])
    def test_non_power_of_two_sizes(self, ell2, n):
        # solved on one period: 96 -> 24 and 100 -> 25 nodes have no
        # coarser level; 384 -> 96 climbs from 24
        ham, medium, theta = ell2
        out = solve_discounted(ham, self.P0, self.LAM, Grid(n, length=4.0),
                               medium, theta)
        assert out.values.shape == (n,)
        assert out.metadata["method"] == "newton"
        assert out.metadata["residual"] <= out.metadata["tol_fp"]

    def test_newton_converges_on_one_period(self, ell2):
        # the ladder reaches 16 nodes, the spacing 64 nodes give on 4
        # periods; from a 64-node coarsest level Newton stalls here
        ham, medium, theta = ell2
        out = solve_discounted(ham, self.P0, self.LAM, Grid(1024, 1.0),
                               medium, theta)
        assert out.metadata["method"] == "newton"
        assert out.metadata["residual"] <= out.metadata["tol_fp"]


def _full_grid_residual(ham, p, lam, grid, medium, values):
    theta = ham.lipschitz(medium)
    h_bound = ham.bind_base(np.array(p), grid.x, medium)
    return float(np.max(np.abs(lam * values
                                + lf_update(h_bound, values, grid, theta))))


class TestBatchAndPeriod:
    """A column of base gradients is solved as one batch, on one medium
    period when the grid holds a whole number of them."""

    P = np.linspace(-3.0, 3.0, 33)[:, None]

    @pytest.fixture(scope="class")
    def ell2(self):
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "ell2_strict.yaml")
        assert cfg.theta is None    # the dissipation is the Lipschitz bound
        return (LevelHamiltonian(cfg.family, cfg.family.ell),
                sample_realization(cfg.medium_spec, cfg.seeds[0]),
                Grid(cfg.solver_n, cfg.solver_length))

    def test_rows_equal_single_solves(self, ell2):
        # a cold rate, then a warm one: at lam = 0.03 the warm starts at
        # p = +-1.875 decline and are retried from the nested start
        ham, medium, grid = ell2
        cold = solve_discounted(ham, self.P, 0.1, grid, medium)
        v0 = np.stack([f.values for f in cold])
        warm = solve_discounted(ham, self.P, 0.03, grid, medium, v0=v0)
        assert {f.metadata["method"] for f in warm} == {"newton", RETRY}
        for i, p in enumerate(self.P):
            one = solve_discounted(ham, p, 0.1, grid, medium)
            np.testing.assert_array_equal(cold[i].values, one.values)
            assert cold[i].metadata == one.metadata
            one = solve_discounted(ham, p, 0.03, grid, medium, v0=v0[i])
            np.testing.assert_array_equal(warm[i].values, one.values)
            assert warm[i].metadata == one.metadata

    def test_one_period_matches_unfolded_solve(self, ell2, monkeypatch):
        ham, medium, grid = ell2
        lam = 0.1
        p = self.P[::4]
        folded = solve_discounted(ham, p, lam, grid, medium)
        monkeypatch.setattr(solver, "_cell_grid", lambda g, m: g)
        whole = solve_discounted(ham, p, lam, grid, medium)
        for a, b, pi in zip(folded, whole, p):
            tol = a.metadata["tol_fp"]
            assert np.max(np.abs(a.values - b.values)) <= tol / lam
            # the tiled field solves the equations of the whole grid
            assert _full_grid_residual(ham, pi, lam, grid, medium,
                                       a.values) <= tol

    def test_length_off_the_period_solves_unfolded(self, ell2):
        ham, medium, _ = ell2
        grid = Grid(320, 2.5)
        p, lam = [2.0625], 0.1
        out = solve_discounted(ham, p, lam, grid, medium)
        assert out.values.shape == (320,)
        assert out.metadata["method"] == "newton"
        assert _full_grid_residual(ham, p, lam, grid, medium,
                                   out.values) <= out.metadata["tol_fp"]

    def test_piecewise_profile_rows_equal_single_solves(self,
                                                        sin_sq_medium):
        valley = PiecewiseMonotone([-1.0, 0.0, 0.5, 2.0],
                                   [1.0, 0.0, 0.0, 0.75])
        piece = Piece(valley, "additive", 0)
        p = [[-1.5], [0.25], [1.0]]
        rows = solve_discounted(piece, p, 0.2, Grid(64), sin_sq_medium)
        for pi, row in zip(p, rows):
            one = solve_discounted(piece, pi, 0.2, Grid(64), sin_sq_medium)
            np.testing.assert_array_equal(row.values, one.values)

    def test_constant_rows_ride_along(self, sin_sq_medium):
        # max(|p|, 3|p| - 1 + V(x)) with 0 <= V <= 1 is x-independent at
        # p = 0 only
        ham = CombinedPiece("max", [
            Piece(AbsShift(0.0, 1.0, 0.0)),
            Piece(AbsShift(0.0, 3.0, -1.0), "additive", 0)])
        out = solve_discounted(ham, [[0.0], [2.0]], 0.1, Grid(64),
                               sin_sq_medium)
        assert [f.metadata["method"] for f in out] == ["constant", "newton"]
        assert out[0].metadata["constant_value"] == 0.0
        assert not np.any(out[0].values)
        one = solve_discounted(ham, [2.0], 0.1, Grid(64), sin_sq_medium)
        np.testing.assert_array_equal(out[1].values, one.values)


class TestMonotoneProbes:
    def test_euler_map_preserves_order(self):
        rng = np.random.default_rng(7)
        g = Grid(64)
        lam = 0.1
        theta = 1.0
        tau = 0.95 / (lam + theta / g.h)
        h_bound = ABS.bind_base(np.array([0.3]), g.x, None)
        for _ in range(20):
            v = rng.uniform(-1.0, 1.0, g.shape)
            w = v + rng.uniform(0.0, 0.5, g.shape)
            gv = v - tau * (lam * v + lf_update(h_bound, v, g, theta))
            gw = w - tau * (lam * w + lf_update(h_bound, w, g, theta))
            assert np.all(gw - gv >= -1e-12)

    def test_comparison_of_shifted_hamiltonians(self, sin_sq_medium):
        # H and H - 1/4: discounted solutions differ by 1/(4 lam)
        g = Grid(64)
        lam = 0.2
        p1 = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        p2 = Piece(AbsShift(0.0, 1.0, -0.25), "additive", 0)
        v1 = solve_discounted(p1, [1.0], lam, g, sin_sq_medium)
        v2 = solve_discounted(p2, [1.0], lam, g, sin_sq_medium)
        diff = v2.values - v1.values
        tol = v1.metadata["tol_fp"] + v2.metadata["tol_fp"]
        assert np.all(diff >= -tol / lam)
        assert np.allclose(diff, 0.25 / lam, atol=2 * tol / lam, rtol=0.0)


def periodized_well(x, L=4.0):
    """min(|x|, 1) made continuous across the seam of [0, L)."""
    d = np.minimum(np.abs(x), np.abs(x - L))
    return np.minimum(d, 1.0)


class TestTimeDependent:
    def test_constant_data_exact_drift(self):
        g = Grid(64, length=4.0)
        piece = Piece(AbsShift(1.0, 1.0, 0.0), None)  # H(0) = 1
        out = solve_time_dependent(piece, lambda x: 0.0 * x + 2.0, 1.0, g,
                                   T=0.5, t_samples=(0.25, 0.5))
        assert np.allclose(out.at(0.25).values, 1.75, atol=1e-12, rtol=0.0)
        assert np.allclose(out.fields[-1].values, 1.5, atol=1e-12, rtol=0.0)

    def test_hopf_lax_refinement(self):
        T = 0.5
        errs = []
        for n in (256, 512, 1024):
            g = Grid(n, length=4.0)
            out = solve_time_dependent(ABS, periodized_well, 1.0, g, T=T)
            exact = hopf_lax_abs(lambda y: periodized_well(np.mod(y, 4.0)),
                                 g.x, T, (0.0, 4.0))
            errs.append(float(np.max(np.abs(out.fields[-1].values - exact))))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 0.05

    def test_restart_matches_single_run_bitwise(self):
        # CFL 0.9 gives 36 steps to T = 0.5 and 18 to T = 0.25: one step
        g = Grid(256, length=4.0)
        full = solve_time_dependent(ABS, periodized_well, 1.0, g, T=0.5)
        half = solve_time_dependent(ABS, periodized_well, 1.0, g, T=0.25)
        rest = solve_time_dependent(ABS, half.fields[-1].values, 1.0, g, T=0.25)
        assert full.metadata["dt"] == half.metadata["dt"] == rest.metadata["dt"]
        assert full.metadata["n_steps"] == 2 * half.metadata["n_steps"]
        assert np.array_equal(rest.fields[-1].values, full.fields[-1].values)

    def test_under_resolved_eps_rejected(self):
        g = Grid(64, length=4.0)  # h = 1/16
        with pytest.raises(SchemeParameterError):
            solve_time_dependent(ABS, periodized_well, 0.05, g, T=0.1)

    def test_incommensurate_sample_time_rejected(self):
        g = Grid(64, length=4.0)
        with pytest.raises(SchemeParameterError):
            solve_time_dependent(ABS, periodized_well, 1.0, g, T=0.5,
                                 t_samples=(0.1234567,))

    def test_comparison_of_initial_data(self, sin_sq_medium):
        piece = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        g = Grid(128, length=4.0)
        rng = np.random.default_rng(3)
        u = rng.uniform(-1, 1, g.shape)
        u_s = np.minimum.accumulate(u)  # arbitrary; just need u0 <= v0
        v0 = u_s + rng.uniform(0.0, 1.0, g.shape)
        a = solve_time_dependent(piece, u_s, 0.5, g, sin_sq_medium, T=0.25)
        b = solve_time_dependent(piece, v0, 0.5, g, sin_sq_medium, T=0.25)
        assert np.all(b.fields[-1].values - a.fields[-1].values >= -1e-12)

    def test_drift_bounded_by_k(self, sin_sq_medium):
        piece = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        g = Grid(256, length=4.0)
        out = solve_time_dependent(piece, periodized_well, 0.25, g,
                                   sin_sq_medium, T=0.5)
        drift = np.max(np.abs(out.fields[-1].values
                              - periodized_well(g.x)))
        assert drift <= out.metadata["k_bound"] * 0.5 + 1e-9


class TestEpsStack:
    """A sequence of eps is one (n_eps, n) march; a number is one row."""

    @pytest.mark.parametrize("medium", ["sin_sq", "checkerboard"])
    def test_rows_match_single_solves_bitwise(self, medium, sin_sq_medium):
        if medium == "checkerboard":
            spec = MediumSpec("checkerboard", period=1.0, channels=[
                {"cell": 0.25, "low": 0.0, "high": 1.0}])
            medium = sample_realization(spec, 1)
        else:
            medium = sin_sq_medium
        piece = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        g = Grid(128, length=4.0)
        schedule = [1.0, 0.5, 0.25]
        stack = solve_time_dependent(piece, periodized_well, schedule, g,
                                     medium, T=0.25, t_samples=(0.125, 0.25))
        assert len(stack) == len(schedule)
        for eps, row in zip(schedule, stack):
            one = solve_time_dependent(piece, periodized_well, eps, g, medium,
                                       T=0.25, t_samples=(0.125, 0.25))
            assert row.times == one.times == [0.125, 0.25]
            assert row.metadata == one.metadata
            assert row.metadata["eps"] == eps
            for a, b in zip(row.fields, one.fields):
                assert np.array_equal(a.values, b.values)
                assert a.metadata == b.metadata
        # the scales see different media, so the rows differ
        assert not np.array_equal(stack[0].fields[-1].values,
                                  stack[2].fields[-1].values)

    def test_number_in_one_series_out(self):
        g = Grid(64, length=4.0)
        one = solve_time_dependent(ABS, periodized_well, 1.0, g, T=0.25)
        assert isinstance(one, solver.TimeSeries)
        listed = solve_time_dependent(ABS, periodized_well, [1.0], g, T=0.25)
        assert len(listed) == 1
        assert np.array_equal(listed[0].fields[-1].values,
                              one.fields[-1].values)

    def test_under_resolved_eps_in_sequence_named(self):
        g = Grid(64, length=4.0)  # h = 1/16
        with pytest.raises(SchemeParameterError, match="eps = 0.05 is under"):
            solve_time_dependent(ABS, periodized_well, [1.0, 0.05, 0.5], g,
                                 T=0.1)
        with pytest.raises(SchemeParameterError, match="eps = -1 is not"):
            solve_time_dependent(ABS, periodized_well, [1.0, -1.0], g, T=0.1)

    # a dissipation far below the Lipschitz bound gives a step count of
    # one; the sample time forces 128 steps of length 1e5/128, far past
    # CFL, and the centered scheme overflows
    UNSTABLE = {"T": 1e5, "theta": 1e-9, "t_samples": (1e5 / 128,)}

    def test_blow_up_names_the_row(self):
        g = Grid(64, length=4.0)
        with np.errstate(all="ignore"), \
                pytest.raises(NonConvergenceError,
                              match="^eps=0.5: evolution blew up"):
            solve_time_dependent(ABS, periodized_well, [0.5, 0.25], g,
                                 **self.UNSTABLE)
        with np.errstate(all="ignore"), \
                pytest.raises(NonConvergenceError,
                              match="^homogenized: evolution blew up"):
            solve_homogenized(_Curve(np.abs, 1.0), periodized_well, g,
                              **self.UNSTABLE)

    def test_band_violation_names_the_row(self):
        g = Grid(64, length=4.0)
        unstable = {"T": 100.0, "theta": 1e-9, "t_samples": (100.0 / 128,)}
        with pytest.raises(NonConvergenceError,
                           match="^eps=1: evolution left the comparison"):
            solve_time_dependent(ABS, periodized_well, [1.0, 0.5], g,
                                 **unstable)
        with pytest.raises(NonConvergenceError,
                           match="^homogenized: evolution left the comp"):
            solve_homogenized(_Curve(np.abs, 1.0), periodized_well, g,
                              **unstable)


class TestHomogenized:
    def test_march_matches_reference_bitwise(self):
        # the base case's curve max(|p| - 1/2, 1) as sweep-eps passes it
        p = np.linspace(-3.0, 3.0, 33)
        curve = EffectiveCurve(p, np.maximum(np.abs(p) - 0.5, 1.0), None,
                               "formula", "coercive")
        g = Grid(256, length=4.0)
        out = solve_homogenized(curve, periodized_well, g, T=0.5,
                                t_samples=(0.25, 0.5))
        n_steps = out.metadata["n_steps"]
        assert n_steps == 36 and out.times == [0.25, 0.5]
        want = lf_march(curve.evaluate, periodized_well(g.x), g, 1.0, 0.5,
                        n_steps)
        assert np.array_equal(out.fields[-1].values, want)

    def test_constant_curve_exact(self):
        # a constant Hamiltonian certifies zero dissipation, so kinks
        # in the data survive the march untouched
        g = Grid(64, length=4.0)
        curve = _Curve(lambda q: 0.0 * q + 0.75, 0.0)
        out = solve_homogenized(curve, periodized_well, g, T=0.4)
        expected = periodized_well(g.x) - 0.75 * 0.4
        assert np.allclose(out.fields[-1].values, expected, atol=1e-12, rtol=0.0)

    def test_abs_curve_matches_hopf_lax(self):
        g = Grid(1024, length=4.0)
        curve = _Curve(np.abs, 1.0)
        out = solve_homogenized(curve, periodized_well, g, T=0.5)
        exact = hopf_lax_abs(lambda y: periodized_well(np.mod(y, 4.0)),
                             g.x, 0.5, (0.0, 4.0))
        assert np.max(np.abs(out.fields[-1].values - exact)) <= 0.05


class TestConsistency:
    def test_first_order_truncation_on_smooth_data(self):
        # H(p) = p on u0 = sin: LF truncation is dominated by the
        # theta*h/2 dissipation term, so it halves with h
        sups = []
        for n in (128, 256):
            g = Grid(n, length=1.0)
            u0 = np.sin(2 * np.pi * g.x)
            exact = 2 * np.pi * np.cos(2 * np.pi * g.x)
            val = lf_update(lambda dv: dv[0], u0, g, 1.0)
            sups.append(float(np.max(np.abs(val - exact))))
        ratio = sups[0] / sups[1]
        assert 1.6 <= ratio <= 2.4

    def test_diffs_match_roll_reference_bitwise(self):
        rng = np.random.default_rng(17)
        for shape in [(16,), (3, 16)]:
            v = rng.uniform(-1, 1, shape)
            dp, dm = solver.upwind_diffs(v, 0.1)
            assert np.array_equal(dp, (np.roll(v, -1, axis=-1) - v) / 0.1)
            assert np.array_equal(dm, (v - np.roll(v, 1, axis=-1)) / 0.1)


class TestProlong:
    def test_even_nodes_exact_and_odd_averaged(self):
        rng = np.random.default_rng(11)
        v = rng.uniform(-1, 1, 32)
        f = prolong_periodic(v)
        assert np.array_equal(f[::2], v)
        assert np.array_equal(f[1::2], 0.5 * (v + np.roll(v, -1)))

    def test_trailing_axes_only(self):
        rng = np.random.default_rng(13)
        v = rng.uniform(-1, 1, (3, 8))
        f = prolong_periodic(v)
        assert f.shape == (3, 16)
        for row, fine in zip(v, f):
            assert np.array_equal(fine, prolong_periodic(row))

