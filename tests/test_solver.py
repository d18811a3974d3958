"""Grid solvers: exact constant cases, oracle comparisons, probes."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from minmax_hj import solver
from minmax_hj.config import ExperimentConfig
from minmax_hj.effective import EffectiveCurve, estimate_effective
from minmax_hj.errors import NonConvergenceError, SchemeParameterError
from minmax_hj.family import (CombinedPiece, Hamiltonian, LevelHamiltonian,
                              MinMaxFamily, Piece)
from minmax_hj.media import MediumSpec, sample_realization
from minmax_hj.profiles import AbsShift, NegatedAbs, PiecewiseMonotone
from minmax_hj.solver import (FALLBACK, RETRY, CellProblem, Grid, lf_update,
                              prolong_periodic, solve_discounted,
                              solve_homogenized, solve_time_dependent)

from _reference import hopf_lax_abs, lf_march, sequential_newton
from conftest import CountingMedium

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


def _assert_row_equal(info, i, one_info):
    """Row i of a batch solve's per-row arrays equals the only row of a
    one-row solve (NaN matching NaN)."""
    np.testing.assert_equal({k: a[i] for k, a in info.items()},
                            {k: a[0] for k, a in one_info.items()})


def _solve(ham, p, lam, grid, medium=None, theta=None, v0=None):
    """One rate of the discounted problem on a cell problem of its own:
    the fields on its cell grid and the solve's per-row arrays."""
    return solve_discounted(CellProblem(ham, p, grid, medium, theta), lam,
                            v0)


def _relaxed(ham, p, lam, grid, medium, tol, theta=None):
    """The relaxation reference: the discounted solution by monotone
    pseudo-time relaxation alone, on the cell grid of ``grid``."""
    cell = solver.CellProblem(ham, [p], grid, medium, theta).at(lam)
    out, _, _ = solver._relax_projected(cell, np.arange(1),
                                        np.zeros((1, cell.grid.n)),
                                        np.array([tol]))
    return out[0]


class TestGrid:
    def test_axes_and_spacing(self):
        g = Grid(64, length=4.0)
        assert g.h == 0.0625
        assert g.x[0] == 0.0 and g.x[-1] == 4.0 - 0.0625


class TestDiscounted:
    def test_zero_base_gradient_zero_solution(self):
        g = Grid(64)
        v, info = _solve(ABS, [0.0], 0.1, g)
        assert not np.any(v)
        assert info["iterations"][0] == 0

    def test_constant_solution_for_x_independent(self):
        g = Grid(64)
        lam = 0.05
        v, info = _solve(ABS, [0.7], lam, g)
        assert np.allclose(v, -0.7 / lam, atol=1e-10, rtol=0.0)
        assert info["method"][0] == "constant"
        # -lam * v recovers H(p0) at every node
        assert np.allclose(-lam * v, 0.7, atol=1e-11, rtol=0.0)

    def test_residual_certified(self, sin_sq_medium):
        piece = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        g = Grid(128)
        v, info = _solve(piece, [1.0], 0.1, g, sin_sq_medium)
        assert info["residual"][0] <= info["tol"][0]
        lam_v = 0.1 * np.abs(v)
        assert lam_v.max() <= 1.0 + 1.0 + 1e-6  # sup |p0| + sup sin^2

    def test_discount_refinement_approaches_cell_limit(self, sin_sq_medium):
        # H = |p| + sin^2(pi x), p0 = 1: the cell limit is 3/2
        piece = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        g = Grid(512)
        vals = []
        warm = None
        for lam in (1e-1, 3e-2, 1e-2):
            warm, _ = _solve(piece, [1.0], lam, g, sin_sq_medium, v0=warm)
            vals.append(float(-lam * warm[0, 0]))
        errs = [abs(v - 1.5) for v in vals]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 0.05

    def test_warm_start_agrees_with_cold(self, sin_sq_medium):
        piece = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        g = Grid(64)
        cold, info = _solve(piece, [0.5], 0.2, g, sin_sq_medium)
        warm, _ = _solve(piece, [0.5], 0.2, g, sin_sq_medium,
                         v0=cold + 0.3)
        tol = info["tol"][0]
        assert np.max(np.abs(cold - warm)) <= 2 * tol / 0.2

    def test_max_iter_exhausted_names_the_gradient(self, sin_sq_medium,
                                                   monkeypatch):
        piece = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        monkeypatch.setattr(solver, "MAX_SWEEPS", 5)
        with pytest.raises(NonConvergenceError,
                           match=r"^p0=\[1\.0\]: no convergence in 5 "
                                 r"iterations \(residual \S+\)$"):
            _relaxed(piece, 1.0, 1e-3, Grid(256), sin_sq_medium, 1e-8)

    def test_relax_and_newton_agree(self, sin_sq_medium):
        piece = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        g = Grid(64)
        lam = 0.2
        a, info = _solve(piece, [0.8], lam, g, sin_sq_medium)
        assert info["method"][0] == "newton"
        tol = info["tol"][0]
        b = _relaxed(piece, 0.8, lam, g, sin_sq_medium, tol)
        assert np.max(np.abs(a[0] - b)) <= 2 * tol / lam

    def test_non_finite_newton_system_names_the_gradient(self):
        # H = |p| + NaN at x = 1/2, a node of every grid of the ladder
        with pytest.raises(NonConvergenceError,
                           match=r"^p0=\[0\.25\]: Newton system is not "
                                 r"finite$"):
            _solve(_NaNAtHalf(), [0.25], 0.1, Grid(64))

    def test_zero_pivot_names_the_gradient(self, monkeypatch, base_family,
                                           sin_sq_medium):
        # a pivot of the last block is zero: its row's gradient is named
        monkeypatch.setattr(solver, "solve_banded",
                            lambda dl, d, du, b: (b, len(b)))
        with pytest.raises(NonConvergenceError,
                           match=r"^p0=\[1\.5\]: Newton system is "
                                 r"singular$"):
            _solve(LevelHamiltonian(base_family), [0.5, 1.5], 0.1, Grid(64),
                   sin_sq_medium)

    def test_one_binding_per_grid(self, base_family, sin_sq_medium):
        # a cold solve on 64 nodes climbs 16 -> 32 -> 64: three grids,
        # one binding and so one channel evaluation each; a warm one
        # binds its grid alone
        medium = CountingMedium(sin_sq_medium)
        ham = LevelHamiltonian(base_family)
        v, info = _solve(ham, [0.5, 1.5], 0.1, Grid(64), medium)
        assert list(info["method"]) == ["newton", "newton"]
        assert medium.calls == {0: 3}
        _solve(ham, [0.5, 1.5], 0.05, Grid(64), medium, v0=v)
        assert medium.calls == {0: 4}

    def test_schedule_shares_one_cell_problem(self, base_family,
                                              sin_sq_medium, monkeypatch):
        # a cold 3-rate schedule on 64 nodes of one period: the first rate
        # climbs 16 -> 32 -> 64, the others reuse the 64-node binding and
        # the one probe of H at zero, with the bits of separate solves
        medium = CountingMedium(sin_sq_medium)
        probes = []
        at_zero = solver._at_zero
        monkeypatch.setattr(solver, "_at_zero",
                            lambda cell: probes.append(cell) or at_zero(cell))
        ham = LevelHamiltonian(base_family)
        p, lams, grid = [0.5, 1.5], [0.4, 0.3, 0.2], Grid(128, 2.0)
        est = estimate_effective(ham, p, medium, lams, grid)
        assert (est["method"] == "newton").all()
        assert medium.calls == {0: 3}
        assert len(probes) == 1
        v = None
        for j, lam in enumerate(lams):
            v, info = _solve(ham, p, lam, grid, sin_sq_medium, v0=v)
            for key in ("iterations", "residual"):
                assert info[key].tobytes() == est[key][:, j].tobytes()


class TestLineSearch:
    """The two-round line search of ``solver._newton`` against the
    one-halving-at-a-time search of ``_reference.sequential_newton``,
    bit for bit: fields, iteration counts, residuals and converged rows.
    The rows halve down to the shortest step and decline, from zero,
    from the nested start and warm from the previous rate (where a
    solve would retry them), on the cell grid and on a coarser level,
    whose workspace holds more trials than rows."""

    @staticmethod
    def _compare(cell, v, seen):
        rows = np.flatnonzero(~cell.const)
        tol = cell.tol[rows]
        want = sequential_newton(cell, rows, v, tol)
        got = solver._newton(cell, rows, v, tol)
        for a, b in zip(want[:4], got):
            assert a.tobytes() == b.tobytes()
        seen["declined"] += int(np.sum(~got[3]))
        seen["shortest"] = min(seen["shortest"], want[4])
        return got[0]

    def test_cold_ell2(self):
        # TestNestedStart's case beside a p-axis, on small grids
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "ell2_strict.yaml")
        ham = LevelHamiltonian(cfg.family)
        medium = sample_realization(cfg.medium_spec, cfg.seeds[0])
        P = np.append(2.0625, np.linspace(-3.0, 3.0, 9))
        seen = {"declined": 0, "shortest": 1.0}
        for n in (64, 128, 256):
            cell = CellProblem(ham, P, Grid(n, 4.0), medium).at(0.1)
            for level in (cell, cell.on(Grid(16, 1.0))):
                self._compare(level, np.zeros((len(P), level.grid.n)), seen)
        assert seen["declined"] and seen["shortest"] == 1.0 / 1024.0

    def test_quasiperiodic_tie2(self):
        tie2 = MinMaxFamily(
            [Piece(AbsShift(0.0, 1.0, -1.0), "additive", 0),
             Piece(AbsShift(0.0, 1.0, -3.0), "additive", 0)],
            [Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0),
             Piece(NegatedAbs(0.0, 1.0, 3.0), "additive", 0)])
        spec = MediumSpec("quasiperiodic", 1.0, [
            {"freqs": [1.0, 1.618], "amps": [0.4, 0.3],
             "phases": [0.0, 0.7], "offset": 0.5}])
        cell = CellProblem(LevelHamiltonian(tie2), np.linspace(-3, 3, 25),
                           Grid(256, 1.0), sample_realization(spec, 3))
        rows = np.arange(25)
        seen = {"declined": 0, "shortest": 1.0}
        self._compare(cell.on(Grid(32, 1.0)).at(0.16),
                      np.zeros((25, 32)), seen)
        warm = None
        for lam in (0.16, 0.08, 0.04):
            at = cell.at(lam)
            self._compare(at, np.zeros((25, 256)), seen)
            if warm is not None:
                self._compare(at, warm, seen)
            warm = self._compare(
                at, solver._nested_start(at, rows, at.tol), seen)
        assert seen["declined"] and seen["shortest"] == 1.0 / 1024.0


class _NaNAtHalf(Hamiltonian):
    def bind(self, x, medium):
        bad = np.where(np.asarray(x) == 0.5, np.nan, 0.0)
        return lambda p: np.abs(p) + bad

    def lipschitz(self, medium=None):
        return 1.0


class TestPeakMemory:
    """The memory one batched cell solve holds at its peak, as
    ``estimate_effective`` runs it, counted in (n_p, n) tables of its
    cell grid: the base case's 33 gradients on 4096 nodes, whose cell
    problem, made first, solves one 1024-node period. Cold is a
    schedule's first rate, which makes the Newton workspace; warm is the
    next rate on the same cell problem, started from the first. The
    workspace and the level kernel's scratch are sized once per grid."""

    # cold and warm
    TABLES = {False: 10.4, True: 5.4}

    @pytest.mark.parametrize("warm", [False, True])
    def test_batched_solve(self, warm, base_family, sin_sq_medium):
        # scipy is imported before tracing: its import is not the solve's
        import scipy.linalg.lapack  # noqa: F401
        cell = CellProblem(LevelHamiltonian(base_family),
                           np.linspace(-3.0, 3.0, 33), Grid(4096, 4.0),
                           sin_sq_medium)
        assert cell.grid.n == 1024
        v0 = solve_discounted(cell, 0.1)[0] if warm else None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            solve_discounted(cell, 0.03, v0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak / (33 * 1024 * 8) <= self.TABLES[warm]


class TestNestedStart:
    """Cold 1-D Newton solves start from the same problem solved on
    coarser grids. On ell2_strict at p = 2.0625, lam = 0.1 Newton from
    zero stalls where the corrector switches between min and max
    branches."""

    P0, LAM = [2.0625], 0.1

    @pytest.fixture(scope="class")
    def ell2(self):
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "ell2_strict.yaml")
        return (LevelHamiltonian(cfg.family),
                sample_realization(cfg.medium_spec, cfg.seeds[0]),
                cfg.theta)

    @pytest.mark.parametrize("n", [256, 4096])
    def test_newton_converges_where_zero_start_stalls(self, ell2, n):
        ham, medium, theta = ell2
        _, info = _solve(ham, self.P0, self.LAM, Grid(n, length=4.0), medium,
                         theta)
        assert info["method"][0] == "newton"
        assert info["residual"][0] <= info["tol"][0]

    def test_newton_agrees_with_relaxation(self, ell2, monkeypatch):
        ham, medium, theta = ell2
        g = Grid(256, length=4.0)
        a, info = _solve(ham, self.P0, self.LAM, g, medium, theta)
        assert info["method"][0] == "newton"
        tol = info["tol"][0]
        # the reference relaxes on the whole grid, not on one period
        monkeypatch.setattr(solver, "_cell_grid", lambda g, m: g)
        b = _relaxed(ham, self.P0[0], self.LAM, g, medium, tol, theta)
        assert np.max(np.abs(np.tile(a[0], 4) - b)) <= 2 * tol / self.LAM

    @pytest.mark.parametrize("n", [96, 100, 384])
    def test_non_power_of_two_sizes(self, ell2, n):
        # solved on one period: 96 -> 24 and 100 -> 25 nodes have no
        # coarser level; 384 -> 96 climbs from 24
        ham, medium, theta = ell2
        v, info = _solve(ham, self.P0, self.LAM, Grid(n, length=4.0), medium,
                         theta)
        assert v.shape == (1, n // 4)
        assert info["method"][0] == "newton"
        assert info["residual"][0] <= info["tol"][0]

    def test_newton_converges_on_one_period(self, ell2):
        # the ladder reaches 16 nodes, the spacing 64 nodes give on 4
        # periods; from a 64-node coarsest level Newton stalls here
        ham, medium, theta = ell2
        _, info = _solve(ham, self.P0, self.LAM, Grid(1024, 1.0),
                         medium, theta)
        assert info["method"][0] == "newton"
        assert info["residual"][0] <= info["tol"][0]


def _full_grid_residual(ham, p, lam, grid, medium, values):
    """Sup of the discounted residual of the field values (one row) at
    the base gradient p on the whole grid."""
    theta = ham.lipschitz(medium)
    h_bound = ham.bind_base(np.array([[p]]), grid.x, medium)
    v = values[None, :]
    return float(np.max(np.abs(lam * v + lf_update(h_bound, v, grid,
                                                   theta))))


class TestBatchAndPeriod:
    """An axis of base gradients is solved as one batch, on one medium
    period when the grid holds a whole number of them."""

    P = np.linspace(-3.0, 3.0, 33)

    @pytest.fixture(scope="class")
    def ell2(self):
        cfg = ExperimentConfig.from_yaml(CONFIG_DIR / "ell2_strict.yaml")
        assert cfg.theta is None    # the dissipation is the Lipschitz bound
        return (LevelHamiltonian(cfg.family),
                sample_realization(cfg.medium_spec, cfg.seeds[0]),
                Grid(cfg.solver_n, cfg.solver_length))

    def test_rows_equal_single_solves(self, ell2):
        # a cold rate, then a warm one: at lam = 0.03 the warm starts at
        # p = +-1.875 decline and are retried from the nested start
        ham, medium, grid = ell2
        cold, cold_info = _solve(ham, self.P, 0.1, grid, medium)
        warm, warm_info = _solve(ham, self.P, 0.03, grid, medium, v0=cold)
        assert set(warm_info["method"]) == {"newton", RETRY}
        for i, p in enumerate(self.P):
            for lam, v0, v, info in ((0.1, None, cold, cold_info),
                                     (0.03, cold[i:i + 1], warm, warm_info)):
                one, one_info = _solve(ham, [p], lam, grid, medium, v0=v0)
                np.testing.assert_array_equal(v[i], one[0])
                _assert_row_equal(info, i, one_info)

    def test_one_period_matches_unfolded_solve(self, ell2, monkeypatch):
        ham, medium, grid = ell2
        lam = 0.1
        p = self.P[::4]
        folded, info = _solve(ham, p, lam, grid, medium)
        copies = grid.n // folded.shape[1]
        assert copies == 4
        monkeypatch.setattr(solver, "_cell_grid", lambda g, m: g)
        whole, _ = _solve(ham, p, lam, grid, medium)
        for a, b, pi, tol in zip(np.tile(folded, copies), whole, p,
                                 info["tol"]):
            assert np.max(np.abs(a - b)) <= tol / lam
            # the tiled field solves the equations of the whole grid
            assert _full_grid_residual(ham, pi, lam, grid, medium, a) <= tol

    def test_length_off_the_period_solves_unfolded(self, ell2):
        ham, medium, _ = ell2
        grid = Grid(320, 2.5)
        p, lam = 2.0625, 0.1
        v, info = _solve(ham, [p], lam, grid, medium)
        assert v.shape == (1, 320)
        assert info["method"][0] == "newton"
        assert _full_grid_residual(ham, p, lam, grid, medium,
                                   v[0]) <= info["tol"][0]

    def test_piecewise_profile_rows_equal_single_solves(self,
                                                        sin_sq_medium):
        valley = PiecewiseMonotone([-1.0, 0.0, 0.5, 2.0],
                                   [1.0, 0.0, 0.0, 0.75])
        piece = Piece(valley, "additive", 0)
        p = [-1.5, 0.25, 1.0]
        rows, _ = _solve(piece, p, 0.2, Grid(64), sin_sq_medium)
        for pi, row in zip(p, rows):
            one, _ = _solve(piece, [pi], 0.2, Grid(64), sin_sq_medium)
            np.testing.assert_array_equal(row, one[0])

    def test_constant_rows_ride_along(self, sin_sq_medium):
        # max(|p|, 3|p| - 1 + V(x)) with 0 <= V <= 1 is x-independent at
        # p = 0 only
        ham = CombinedPiece("max", [
            Piece(AbsShift(0.0, 1.0, 0.0)),
            Piece(AbsShift(0.0, 3.0, -1.0), "additive", 0)])
        v, info = _solve(ham, [0.0, 2.0], 0.1, Grid(64), sin_sq_medium)
        assert info["method"].tolist() == ["constant", "newton"]
        assert info["constant"][0] == 0.0 and np.isnan(info["constant"][1])
        assert not np.any(v[0])
        one, _ = _solve(ham, [2.0], 0.1, Grid(64), sin_sq_medium)
        np.testing.assert_array_equal(v[1], one[0])


class TestRelaxationFallback:
    """The base pair on a two-valued checkerboard at p = 0, lam = 0.16:
    Newton from the nested start declines and relaxation converges."""

    LAM = 0.16

    @pytest.fixture(scope="class")
    def case(self):
        spec = MediumSpec("checkerboard", 1.0, [
            {"cell": 0.5, "low": 0.0, "high": 1.0}])
        check = Piece(AbsShift(0.0, 1.0, -1.0), "additive", 0)
        hat = Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0)
        family = MinMaxFamily([check], [hat])
        return (LevelHamiltonian(family), sample_realization(spec, 0),
                Grid(256, 1.0))

    def test_fallback_row_is_certified(self, case):
        ham, medium, grid = case
        v, info = _solve(ham, [0.0], self.LAM, grid, medium)
        assert info["method"][0] == FALLBACK
        assert info["residual"][0] <= info["tol"][0]
        assert _full_grid_residual(ham, 0.0, self.LAM, grid, medium,
                                   v[0]) <= info["tol"][0]
        # comparison: |lam*v| <= sup|H(0,.)| + tol
        h0 = ham.bind_base(np.zeros((1, 1)), grid.x, medium)(
            (np.zeros((1, grid.n)),))
        assert np.max(np.abs(self.LAM * v)) \
            <= np.max(np.abs(h0)) + info["tol"][0]

    def test_rows_beside_newton_rows_equal_single_solves(self, case):
        ham, medium, grid = case
        p = [-1.5, 0.0, 1.5]
        v, info = _solve(ham, p, self.LAM, grid, medium)
        assert info["method"].tolist() == ["newton", FALLBACK, "newton"]
        for i, pi in enumerate(p):
            one, one_info = _solve(ham, [pi], self.LAM, grid, medium)
            np.testing.assert_array_equal(v[i], one[0])
            _assert_row_equal(info, i, one_info)


class TestMonotoneProbes:
    def test_euler_map_preserves_order(self):
        rng = np.random.default_rng(7)
        g = Grid(64)
        lam = 0.1
        theta = 1.0
        tau = 0.95 / (lam + theta / g.h)
        h_bound = ABS.bind_base(np.array([0.3]), g.x, None)
        for _ in range(20):
            v = rng.uniform(-1.0, 1.0, g.n)
            w = v + rng.uniform(0.0, 0.5, g.n)
            gv = v - tau * (lam * v + lf_update(h_bound, v, g, theta))
            gw = w - tau * (lam * w + lf_update(h_bound, w, g, theta))
            assert np.all(gw - gv >= -1e-12)

    def test_comparison_of_shifted_hamiltonians(self, sin_sq_medium):
        # H and H - 1/4: discounted solutions differ by 1/(4 lam)
        g = Grid(64)
        lam = 0.2
        p1 = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        p2 = Piece(AbsShift(0.0, 1.0, -0.25), "additive", 0)
        v1, info1 = _solve(p1, [1.0], lam, g, sin_sq_medium)
        v2, info2 = _solve(p2, [1.0], lam, g, sin_sq_medium)
        diff = v2 - v1
        tol = info1["tol"][0] + info2["tol"][0]
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
        out, _ = solve_time_dependent(piece, lambda x: 0.0 * x + 2.0, [1.0],
                                      g, T=0.5, t_samples=(0.25, 0.5))
        assert np.allclose(out[0], 1.75, atol=1e-12, rtol=0.0)
        assert np.allclose(out[1], 1.5, atol=1e-12, rtol=0.0)

    def test_hopf_lax_refinement(self):
        T = 0.5
        errs = []
        for n in (256, 512, 1024):
            g = Grid(n, length=4.0)
            out, _ = solve_time_dependent(ABS, periodized_well, [1.0], g, T=T)
            exact = hopf_lax_abs(lambda y: periodized_well(np.mod(y, 4.0)),
                                 g.x, T, (0.0, 4.0))
            errs.append(float(np.max(np.abs(out[-1, 0] - exact))))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 0.05

    def test_restart_matches_single_run_bitwise(self):
        # CFL 0.9 gives 36 steps to T = 0.5 and 18 to T = 0.25: one step
        g = Grid(256, length=4.0)
        full, fm = solve_time_dependent(ABS, periodized_well, [1.0], g, T=0.5)
        half, hm = solve_time_dependent(ABS, periodized_well, [1.0], g,
                                        T=0.25)
        rest, rm = solve_time_dependent(ABS, half[-1, 0], [1.0], g, T=0.25)
        assert fm["dt"] == hm["dt"] == rm["dt"]
        assert fm["n_steps"] == 2 * hm["n_steps"]
        assert np.array_equal(rest[-1], full[-1])

    def test_incommensurate_sample_time_rejected(self):
        g = Grid(64, length=4.0)
        with pytest.raises(SchemeParameterError, match="not commensurate"):
            solve_time_dependent(ABS, periodized_well, [1.0], g, T=0.5,
                                 t_samples=(0.1234567,))

    def test_comparison_of_initial_data(self, sin_sq_medium):
        piece = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        g = Grid(128, length=4.0)
        rng = np.random.default_rng(3)
        u = rng.uniform(-1, 1, g.n)
        u_s = np.minimum.accumulate(u)  # arbitrary; just need u0 <= v0
        v0 = u_s + rng.uniform(0.0, 1.0, g.n)
        a, _ = solve_time_dependent(piece, u_s, [0.5], g, sin_sq_medium,
                                    T=0.25)
        b, _ = solve_time_dependent(piece, v0, [0.5], g, sin_sq_medium,
                                    T=0.25)
        assert np.all(b[-1] - a[-1] >= -1e-12)

    def test_drift_bounded_by_k(self, sin_sq_medium):
        piece = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        g = Grid(256, length=4.0)
        out, march = solve_time_dependent(piece, periodized_well, [0.25], g,
                                          sin_sq_medium, T=0.5)
        drift = np.max(np.abs(out[-1, 0] - periodized_well(g.x)))
        assert drift <= march["k_bound"][0] * 0.5 + 1e-9


class TestEpsStack:
    """An array of eps is one (n_eps, n) march; one eps is a stack of
    one."""

    @pytest.mark.parametrize("medium,profile", [
        pytest.param("sin_sq", AbsShift(0.0, 1.0, 0.0), id="sin_sq"),
        pytest.param("checkerboard", AbsShift(0.0, 1.0, 0.0),
                     id="checkerboard"),
        # the whole stack goes through one np.interp
        pytest.param("sin_sq", PiecewiseMonotone(
            [-1.0, 0.0, 0.5, 2.0], [1.0, -0.5, -0.5, 2.0]), id="piecewise")])
    def test_rows_match_single_solves_bitwise(self, medium, profile,
                                              sin_sq_medium):
        if medium == "checkerboard":
            spec = MediumSpec("checkerboard", period=1.0, channels=[
                {"cell": 0.25, "low": 0.0, "high": 1.0}])
            medium = sample_realization(spec, 1)
        else:
            medium = sin_sq_medium
        piece = Piece(profile, "additive", 0)
        g = Grid(128, length=4.0)
        schedule = [1.0, 0.5, 0.25]
        stack, march = solve_time_dependent(
            piece, periodized_well, schedule, g, medium, T=0.25,
            t_samples=(0.125, 0.25))
        # one snapshot per sample time, one row per eps
        assert stack.shape == (2, len(schedule), g.n)
        for i, eps in enumerate(schedule):
            one, one_march = solve_time_dependent(
                piece, periodized_well, [eps], g, medium, T=0.25,
                t_samples=(0.125, 0.25))
            assert np.array_equal(stack[:, i], one[:, 0])
            for key in ("dt", "n_steps", "theta"):
                assert march[key] == one_march[key]
            assert march["k_bound"][i] == one_march["k_bound"][0]
        # the scales see different media, so the rows differ
        assert not np.array_equal(stack[-1, 0], stack[-1, 2])

    @pytest.mark.parametrize("family", [
        # every center 0, every slope 1: all identity arithmetic left out
        pytest.param("base_case", id="base_case"),
        pytest.param("ell2_strict", id="ell2_strict"),
        # centers +-1 keep their subtraction, slope 2 its product, an
        # amplitude piece its coefficient, a valley its interpolation
        pytest.param(MinMaxFamily(
            [Piece(AbsShift(1.0, 1.0, 0.0), "additive", 0)],
            [Piece(NegatedAbs(-1.0, 2.0, 3.0), "amplitude", 2, 0.5)]),
            id="skew"),
        pytest.param(MinMaxFamily(
            [Piece(PiecewiseMonotone([-1.0, 0.0, 0.5, 2.0],
                                     [1.0, -0.5, -0.5, 2.0]))],
            [Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0)]),
            id="piecewise")])
    def test_rows_match_the_reference_march_bitwise(self, family,
                                                     two_channel_medium):
        # each row is the literal np.roll march of its own bound
        # Hamiltonian H(., x / eps), with no base gradient added
        medium = two_channel_medium
        if isinstance(family, str):
            cfg = ExperimentConfig.from_yaml(CONFIG_DIR / f"{family}.yaml")
            family = cfg.family
            medium = sample_realization(cfg.medium_spec, 0)
        ham = LevelHamiltonian(family)
        g = Grid(100, length=4.0)     # h = 0.04 is not a power of two
        schedule = [1.0, 0.5, 0.25]
        stack, march = solve_time_dependent(
            ham, periodized_well, schedule, g, medium, T=0.25,
            t_samples=(0.125, 0.25))
        for i, eps in enumerate(schedule):
            h = ham.bind_base(0.0, g.x / eps, medium)
            want = lf_march(lambda p: h((p,)), periodized_well(g.x), g,
                            march["theta"], 0.25, march["n_steps"])
            assert stack[-1, i].tobytes() == want.tobytes()

    def test_eps_is_a_1d_array(self):
        g = Grid(64, length=4.0)
        one, _ = solve_time_dependent(ABS, periodized_well, [1.0], g, T=0.25)
        assert one.shape == (1, 1, g.n)

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
        out, march = solve_homogenized(curve, periodized_well, g, T=0.5,
                                       t_samples=(0.25, 0.5))
        n_steps = march["n_steps"]
        assert n_steps == 36 and out.shape == (2, 1, g.n)
        want = lf_march(curve.evaluate, periodized_well(g.x), g, 1.0, 0.5,
                        n_steps)
        assert np.array_equal(out[-1, 0], want)

    def test_constant_curve_exact(self):
        # a constant Hamiltonian certifies zero dissipation, so kinks
        # in the data survive the march untouched
        g = Grid(64, length=4.0)
        curve = _Curve(lambda q: 0.0 * q + 0.75, 0.0)
        out, _ = solve_homogenized(curve, periodized_well, g, T=0.4)
        expected = periodized_well(g.x) - 0.75 * 0.4
        assert np.allclose(out[-1, 0], expected, atol=1e-12, rtol=0.0)

    def test_abs_curve_matches_hopf_lax(self):
        g = Grid(1024, length=4.0)
        curve = _Curve(np.abs, 1.0)
        out, _ = solve_homogenized(curve, periodized_well, g, T=0.5)
        exact = hopf_lax_abs(lambda y: periodized_well(np.mod(y, 4.0)),
                             g.x, 0.5, (0.0, 4.0))
        assert np.max(np.abs(out[-1, 0] - exact)) <= 0.05


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

    @pytest.mark.parametrize("pbase", ["zero", "column"])
    def test_work_tuple_changes_no_bit(self, pbase, two_level_family,
                                       two_channel_medium):
        # the march's in-place kernel against the fresh-array one, on
        # random stacks, theta values and spacings
        rng = np.random.default_rng(29)
        ham = LevelHamiltonian(two_level_family)
        for k, n in [(1, 16), (3, 64), (5, 33)]:
            g = Grid(n, length=rng.uniform(0.5, 4.0))
            x = g.x / rng.uniform(0.1, 1.0, (k, 1))
            base = 0.0 if pbase == "zero" else rng.uniform(-3, 3, (k, 1))
            h_bound = ham.bind_base(base, x, two_channel_medium)
            work = solver._work_arrays(np.empty((k, n)))
            for theta in rng.uniform(0.5, 4.0, 3):
                v = rng.uniform(-2, 2, (k, n)) * rng.uniform(0.1, 10.0)
                fresh = lf_update(h_bound, v, g, theta)
                assert not any(np.shares_memory(fresh, a)
                               for a in (v, *work))
                got = lf_update(h_bound, v, g, theta, work)
                assert got is work[2]
                assert got.tobytes() == fresh.tobytes()

    def test_diffs_match_roll_reference_bitwise(self):
        # a power-of-two spacing multiplies by its exact reciprocal,
        # also a subnormal one; the reference divides
        rng = np.random.default_rng(17)
        for h in [0.1, 3.0, 0.125, 2.0 ** -12, 2.0 ** -1030, 2.0 ** 1023]:
            for shape in [(16,), (3, 16)]:
                v = rng.uniform(-1, 1, shape) \
                    * rng.choice([1e-300, 1.0, 1e300])
                with np.errstate(over="ignore", under="ignore"):
                    dp, dm = solver.upwind_diffs(v, h)
                    want = ((np.roll(v, -1, axis=-1) - v) / h,
                            (v - np.roll(v, 1, axis=-1)) / h)
                assert dp.tobytes() == want[0].tobytes(), h
                assert dm.tobytes() == want[1].tobytes(), h

    def test_row_sup_is_the_row_max_of_abs(self):
        rng = np.random.default_rng(19)
        a = rng.uniform(-1, 1, (5, 33))
        assert solver._row_sup(a).tobytes() \
            == np.max(np.abs(a), axis=1).tobytes()
        edge = np.array([[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0],
                         [-np.inf, 1.0], [np.nan, -2.0], [3.0, -np.nan]])
        got = solver._row_sup(edge)
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, np.inf, np.nan,
                                            np.nan])
        assert not np.signbit(got[:4]).any()


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

