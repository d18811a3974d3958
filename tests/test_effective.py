import re

import numpy as np
import pytest

from minmax_hj.effective import (EffectiveCurve, _power_fit,
                                 estimate_effective,
                                 exact_effective_1d_separable,
                                 fit_schedule_data, theorem_formula,
                                 theorem_formula_values,
                                 verify_symmetries)
from minmax_hj.errors import ConfigError, SchemeParameterError
from minmax_hj.family import GradientShift, LevelHamiltonian, Piece, PieceTable
from minmax_hj.media import MediumSpec, sample_realization
from minmax_hj.pairs import contact_fields
from minmax_hj.profiles import AbsShift, NegatedAbs, PiecewiseMonotone
from minmax_hj.solver import Grid, solve_discounted

from _reference import bisection_oracle, power_fit
from conftest import piece_curve, random_piece

P33 = np.linspace(-3.0, 3.0, 33)


def sin_sq_table(n=4096):
    x = np.arange(n) / n
    return np.sin(np.pi * x) ** 2


def medium_table(kind, n=512):
    """One period of a seeded medium's first channel on n nodes."""
    channel = {"sin_sq": {"formula": "sin_sq"},
               "checkerboard": {"cell": 0.125, "low": -0.5, "high": 1.0},
               "quasiperiodic": {"freqs": [1.0, 1.618], "amps": [0.4, 0.3],
                                 "phases": [0.0, 0.7], "offset": 0.5}}[kind]
    medium = sample_realization(
        MediumSpec("periodic" if kind == "sin_sq" else kind, 1.0, [channel]),
        3)
    return medium.evaluate_channel(0, np.arange(n) / n)


def random_valley(rng, flat):
    """Falling, optionally flat, then rising pieces with random slopes."""
    n_l, n_r = rng.integers(1, 4, size=2)
    gaps = rng.uniform(0.3, 1.5, size=n_l + n_r + flat)
    breaks = np.concatenate(([0.0], np.cumsum(gaps))) - rng.uniform(1, 3)
    rises = rng.uniform(0.2, 2.0, size=n_l + n_r + flat) * gaps
    steps = np.concatenate((-rises[:n_l], np.zeros(flat), rises[n_l + flat:]))
    values = rng.uniform(-1, 1) + np.concatenate(([0.0], np.cumsum(steps)))
    return PiecewiseMonotone(breaks, values, "valley")


_RNG = np.random.default_rng(11)
ORACLE_PROFILES = (
    [AbsShift(_RNG.uniform(-1, 1), _RNG.uniform(0.3, 2.0),
              _RNG.uniform(-1, 1)) for _ in range(3)]
    # flat bottom, asymmetric slopes, kinks above the critical level
    + [PiecewiseMonotone([-3.0, -1.5, -0.5, 0.5, 1.0, 2.5],
                         [4.0, 1.5, 0.2, 0.2, 1.0, 3.5], "valley"),
       PiecewiseMonotone([-1.0, 0.0, 3.0], [0.5, -0.25, 4.0], "valley")]
    + [random_valley(_RNG, flat) for flat in (0, 1, 1)])


class TestOracle:
    def test_abs_plus_sine_curve(self):
        curve = exact_effective_1d_separable(AbsShift(0.0, 1.0, 0.0),
                                             sin_sq_table(), P33)
        expect = np.maximum(np.abs(P33) + 0.5, 1.0)
        assert np.max(np.abs(curve.values - expect)) <= 1e-9
        # exact up to rounding
        assert np.max(np.abs(curve.values - expect)) <= 1e-13
        lo, hi = curve.intermediates["flat_interval"]
        assert abs(lo + 0.5) <= 1e-12 and abs(hi - 0.5) <= 1e-12
        assert curve.intermediates["critical_level"] == 1.0

    def test_zero_potential_gives_profile(self):
        curve = exact_effective_1d_separable(AbsShift(0.0, 1.0, 0.0),
                                             np.zeros(64), P33)
        assert np.max(np.abs(curve.values - np.abs(P33))) <= 1e-9

    def test_origin_value_is_potential_max(self):
        table = 0.3 + 0.7 * sin_sq_table(512)
        curve = exact_effective_1d_separable(AbsShift(0.0, 1.0, 0.0),
                                             table, np.array([-1.0, 0.0, 1.0]))
        # p=0 sits on the flat piece, so the value is the critical level
        assert curve.values[1] == float(table.max())

    def test_valley_profile_matches_abs(self):
        valley = PiecewiseMonotone([-2.0, 0.0, 2.0], [2.0, 0.0, 2.0], "valley")
        a = exact_effective_1d_separable(valley, sin_sq_table(), P33)
        b = exact_effective_1d_separable(AbsShift(0.0, 1.0, 0.0),
                                         sin_sq_table(), P33)
        assert np.max(np.abs(a.values - b.values)) <= 1e-9
        expect = np.maximum(np.abs(P33) + 0.5, 1.0)
        assert np.max(np.abs(a.values - expect)) <= 1e-13

    @pytest.mark.parametrize("table", ["sin_sq", "checkerboard",
                                       "quasiperiodic", "sin_sq+a",
                                       "checkerboard+a", "quasiperiodic+a"])
    @pytest.mark.parametrize("profile", ORACLE_PROFILES)
    def test_matches_bisection_definition(self, profile, table):
        V = medium_table(table.removesuffix("+a"))
        # "+a" adds an amplitude: the same table a third of a period on,
        # so that a and V peak at different nodes, moved onto [0.5, 1.5]
        A = np.roll(V, V.size // 3)
        A = 0.5 + (A - A.min()) / np.ptp(A) if table.endswith("+a") else None
        p = np.linspace(-6.0, 6.0, 25)
        curve = exact_effective_1d_separable(profile, V, p, A)
        values, mu_star, (lo, hi) = bisection_oracle(profile, V, p, A)
        # gradients left of, inside and right of the flat interval
        assert np.any(p < lo) and np.any((lo <= p) & (p <= hi)) \
            and np.any(p > hi)
        # the bisection stops at a level width of 1e-10
        assert np.max(np.abs(curve.values - values)) <= 1e-10
        assert curve.intermediates["critical_level"] == mu_star
        assert np.allclose(curve.intermediates["flat_interval"], (lo, hi),
                           rtol=0.0, atol=1e-13)

    def test_rejects_quasiconcave_profile(self):
        with pytest.raises(ValueError):
            exact_effective_1d_separable(NegatedAbs(0.0, 1.0, 0.0),
                                         sin_sq_table(), P33)


class TestPieceCurves:
    def test_check_piece_closed_form(self, base_family, sin_sq_medium):
        curve = piece_curve(base_family.checks[0], sin_sq_medium, P33)
        expect = np.maximum(1.0, np.abs(P33) + 0.5) - 1.0
        assert np.max(np.abs(curve.values - expect)) <= 1e-9
        assert np.max(np.abs(curve.values - expect)) <= 1e-13
        assert curve.kind == "coercive"

    def test_hat_piece_closed_form(self, base_family, sin_sq_medium):
        curve = piece_curve(base_family.hats[0], sin_sq_medium, P33)
        expect = np.minimum(1.0, 1.5 - np.abs(P33))
        assert np.max(np.abs(curve.values - expect)) <= 1e-9
        assert np.max(np.abs(curve.values - expect)) <= 1e-13
        assert curve.kind == "anticoercive"

    def test_second_level_closed_forms(self, two_level_family,
                                       two_channel_medium):
        check = piece_curve(two_level_family.checks[1], two_channel_medium,
                            P33)
        hat = piece_curve(two_level_family.hats[1], two_channel_medium, P33)
        check_err = np.max(np.abs(check.values
                                  - np.maximum(np.abs(P33) - 2.75, -2.5)))
        hat_err = np.max(np.abs(hat.values
                                - np.minimum(3.0, 3.25 - np.abs(P33))))
        assert check_err <= 1e-9 and hat_err <= 1e-9
        assert check_err <= 1e-13 and hat_err <= 1e-13

    def test_amplitude_closed_form(self, two_channel_medium):
        # H = a |p| with a = 1/2 + sin^2: level mu >= 0 admits the mean
        # gradients +-mu mean(1/a) = +-mu / sqrt(3/4), so the curve is
        # sqrt(3/4) |p|, flat only at its critical level 0 at p = 0
        piece = Piece(AbsShift(0.0, 1.0, 0.0), "amplitude", 2, scale=1.0)
        curve = piece_curve(piece, two_channel_medium, P33)
        expect = np.abs(P33) * np.sqrt(0.75)
        assert np.max(np.abs(curve.values - expect)) <= 1e-13
        assert curve.intermediates["critical_level"] == 0.0

    def test_oracle_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError, match="amplitudes must be positive"):
            exact_effective_1d_separable(AbsShift(0.0, 1.0, 0.0),
                                         np.zeros(4), P33,
                                         np.array([1.0, 0.5, 0.0, 1.0]))


class TestEstimate:
    def test_x_independent_is_exact(self):
        flat = Piece(AbsShift(0.0, 1.0, 0.25))
        est = estimate_effective(flat, [0.75], None, [0.1, 0.04, 0.02],
                                 Grid(512))
        assert est["value"].tolist() == [1.0]
        assert np.isnan(est["alpha"]).all() and est["reliable"].all()
        assert (est["method"] == "constant").all()

    def test_oracle_example_abs_plus_sine(self, sin_sq_medium):
        bare = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        est = estimate_effective(bare, [1.0], sin_sq_medium,
                                 [0.1, 0.04, 0.01], Grid(1024))
        value, = est["value"]
        assert abs(value - 1.5) <= 5e-3
        assert abs(value - 1.5) <= est["error_bar"][0] + 5e-3
        assert est["reliable"].all()

    def test_family_matches_expected_curve(self, base_family, sin_sq_medium):
        h1 = LevelHamiltonian(base_family)
        grid = Grid(512)
        p = np.array([0.0, 1.0, 2.0])
        est = estimate_effective(h1, p, sin_sq_medium, [0.1, 0.04, 0.02],
                                 grid)
        assert np.all(np.abs(est["value"] - np.maximum(np.abs(p) - 0.5, 1.0))
                      <= 5e-3)
        assert np.all((0.4 <= est["alpha"]) & (est["alpha"] <= 1.1))
        # the extrapolated value is within 0.05 of -lam * v_lam at every
        # node at the smallest rate
        v, _ = solve_discounted(h1, p, 0.02, grid, sin_sq_medium)
        assert np.all(np.abs(0.02 * v + est["value"][:, None]) <= 0.05)

    def test_oracle_agreement_within_bars(self, sin_sq_medium):
        bare = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        oracle = exact_effective_1d_separable(AbsShift(0.0, 1.0, 0.0),
                                              sin_sq_table(), P33)
        est = estimate_effective(bare, P33[::4], sin_sq_medium,
                                 [0.1, 0.04, 0.02], Grid(512))
        assert np.all(np.abs(est["value"] - oracle.values[::4])
                      <= est["error_bar"] + 5e-3)

    @pytest.mark.parametrize("tag", ["quasiconvex", "quasiconcave"])
    def test_oracle_agreement_on_amplitude_pieces(self, tag,
                                                  two_channel_medium):
        # seeded draws of random_piece until three are amplitude-coupled;
        # the 5e-3 slack covers the grid bias the bare bar leaves out
        rng = np.random.default_rng(23)
        pieces = []
        while len(pieces) < 3:
            piece = random_piece(rng, two_channel_medium, tag)
            if piece.coupling == "amplitude":
                pieces.append(piece)
        for piece in pieces:
            oracle = piece_curve(piece, two_channel_medium, P33[::4])
            est = estimate_effective(piece, P33[::4], two_channel_medium,
                                     [0.1, 0.04, 0.02], Grid(512))
            assert np.all(np.abs(est["value"] - oracle.values)
                          <= est["error_bar"] + 5e-3)

    def test_schedule_validation(self, base_family, sin_sq_medium):
        h1 = LevelHamiltonian(base_family)
        with pytest.raises(ConfigError):
            estimate_effective(h1, [0.0], sin_sq_medium, [0.01, 0.04, 0.1],
                               Grid(512))
        with pytest.raises(ConfigError):
            estimate_effective(h1, [0.0], sin_sq_medium, [0.1, 0.04],
                               Grid(512))
        with pytest.raises(SchemeParameterError):
            estimate_effective(h1, [0.0], sin_sq_medium, [0.1, 0.04, 0.01],
                               Grid(128))

    def test_fit_recovers_power_law(self):
        lams = [0.1, 0.04, 0.02, 0.008]
        ys = [2.0 + 0.8 * l ** 0.7 for l in lams]
        fit = fit_schedule_data(lams, [ys], 0.0)
        assert abs(fit["value"][0] - 2.0) <= 1e-10
        assert abs(fit["alpha"][0] - 0.7) <= 1e-3
        assert fit["reliable"].all()

    def test_power_fit_matches_loop(self):
        # the batched exponent scan is the per-alpha loop, bit for bit,
        # on every row of a stack: a power law, noisy data and nearly
        # flat data share each schedule
        rng = np.random.default_rng(5)
        for trial in range(100):
            m = int(rng.integers(3, 12))
            lams = np.sort(rng.uniform(1e-3, 0.5, m))[::-1]
            ys = rng.uniform(-3, 3) + rng.uniform(-1, 1) * lams ** \
                rng.uniform(0.2, 1.5)
            Y = np.array([ys, ys + 1e-6 * rng.normal(size=m),
                          np.full(m, ys[0]) + 1e-14 * (np.arange(m) == 0)])
            fits = _power_fit(lams, Y)
            for r, ys_r in enumerate(Y):
                assert tuple(f[r] for f in fits) == power_fit(lams, ys_r)

    def test_stacked_fit_is_each_row_alone(self):
        # one call on the stack equals one call per row, bit for bit, for
        # discount-independent, non-monotone and power-law rows
        lams = [0.16, 0.08, 0.04, 0.02]
        Y = np.array([[0.75] * 4,
                      [1.0, 1.1, 0.95, 1.02],
                      [2.0 + 0.8 * l ** 0.7 for l in lams],
                      [-1.0 - 0.3 * l ** 1.05 for l in lams]])
        tol = np.array([1e-8, 2e-8, 1e-8, 3e-8])
        stacked = fit_schedule_data(lams, Y, tol)
        assert stacked["reliable"].tolist() == [True, False, True, True]
        assert np.isnan(stacked["alpha"]).tolist() == [True, False, False,
                                                        False]
        for r in range(len(Y)):
            alone = fit_schedule_data(lams, Y[r:r + 1], tol[r])
            for key, col in stacked.items():
                assert col[r:r + 1].tobytes() == alone[key].tobytes(), key

    def test_fit_flags_non_monotone_data(self):
        fit = fit_schedule_data([0.1, 0.03, 0.01], [[1.0, 1.1, 0.95]], 0.0)
        assert not fit["reliable"][0]
        assert np.isfinite(fit["value"][0])

    def test_shift_invariance_bit_exact(self, base_family, sin_sq_medium):
        h1 = LevelHamiltonian(base_family)
        grid = Grid(512)
        sched = [0.1, 0.04, 0.02]
        a = estimate_effective(h1, [0.5], sin_sq_medium, sched, grid)
        b = estimate_effective(GradientShift(h1, 1.0), [1.5], sin_sq_medium,
                               sched, grid)
        assert a["value"] == b["value"]
        assert a["error_bar"] == b["error_bar"]

    def test_gradient_axis_is_1d(self, sin_sq_medium):
        # every gradient of the axis gets its row, bit-identical to its
        # one-gradient call; any other shape is rejected by name
        bare = Piece(AbsShift(0.0, 1.0, 0.0), "additive", 0)
        sched, grid = [0.1, 0.04, 0.02], Grid(512)
        both = estimate_effective(bare, [0.5, 2.0], sin_sq_medium, sched,
                                  grid)
        assert both["value"].shape == (2,)
        assert both["method"].shape == (2, 3)
        for i, p in enumerate([0.5, 2.0]):
            one = estimate_effective(bare, [p], sin_sq_medium, sched, grid)
            row = {key: col if key == "lams" else col[i:i + 1]
                   for key, col in both.items()}
            assert one.keys() == row.keys()
            for key in one:
                np.testing.assert_array_equal(one[key], row[key],
                                              err_msg=key)
        for p in (0.5, [[0.5, 1.0]]):
            with pytest.raises(SchemeParameterError,
                               match=re.escape(f"got shape {np.shape(p)}")):
                estimate_effective(bare, p, sin_sq_medium, sched, grid)


class TestFormula:
    def test_level1_closed_form(self):
        check = EffectiveCurve(P33, np.maximum(1.0, np.abs(P33) + 0.5) - 1.0)
        hat = EffectiveCurve(P33, 1.0 - np.maximum(0.0, np.abs(P33) - 0.5),
                             kind="anticoercive")

        consts = {"m_bar": np.array([1.0]), "M_lower": np.array([1.0])}

        curve = theorem_formula([check], [hat], consts)
        assert np.array_equal(curve.values, np.maximum(np.abs(P33) - 0.5, 1.0))

    def test_constant_inputs_pass_through(self):
        c = 0.7
        const = lambda: EffectiveCurve(P33, np.full(33, c))
        consth = lambda: EffectiveCurve(P33, np.full(33, c),
                                        kind="anticoercive")

        consts = {"m_bar": np.array([c, c]), "M_lower": np.array([c, c])}

        curve = theorem_formula([const(), const()], [consth(), consth()],
                                consts)
        assert np.all(curve.values == c)

    def test_two_level_scalar_smoke(self):
        top, inter = theorem_formula_values(
            [np.array([5.0]), np.array([2.0])],
            [np.array([1.0]), np.array([4.0])],
            [3.0, 2.5], [4.0, 4.5])
        assert top[0] == 4.0
        assert inter["1"][0] == 5.0
        assert inter["1.5"][0] == 4.0
        assert inter["2"][0] == 4.0

    def test_grid_mismatch_raises(self):
        a = EffectiveCurve(P33, np.abs(P33))
        b = EffectiveCurve(P33 + 0.1, np.abs(P33), kind="anticoercive")

        consts = {"m_bar": np.array([1.0]), "M_lower": np.array([1.0])}

        with pytest.raises(ValueError):
            theorem_formula([a], [b], consts)

    def test_two_level_formula_closed_form(self, two_level_family,
                                           two_channel_medium):
        checks = [piece_curve(pc, two_channel_medium, P33)
                  for pc in two_level_family.checks]
        hats = [piece_curve(pc, two_channel_medium, P33)
                for pc in two_level_family.hats]
        consts = contact_fields(PieceTable(two_level_family,
                                           [two_channel_medium]))
        curve = theorem_formula(checks, hats, consts)
        q = np.abs(P33)
        inner = np.maximum(q - 0.5, 1.0)
        half = np.minimum(np.minimum(np.minimum(3.0, 3.25 - q), 1.25), inner)
        expect = np.maximum(np.maximum(np.maximum(q - 2.75, -2.5), 0.5), half)
        assert np.max(np.abs(curve.values - expect)) <= 2e-9
        assert set(curve.intermediates) == {"1", "1.5", "2"}

    def test_error_bars_propagate(self):
        bars = np.full(33, 0.25)
        check = EffectiveCurve(P33, np.abs(P33), error_bars=bars)
        hat = EffectiveCurve(P33, 2.0 - np.abs(P33), kind="anticoercive")

        consts = {"m_bar": np.array([0.5]), "M_lower": np.array([0.5])}

        curve = theorem_formula([check], [hat], consts)
        assert np.all(curve.error_bars == 0.25)


class TestCurveType:
    def test_interpolation_and_tails(self):
        curve = EffectiveCurve([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
        assert curve.evaluate(0.5) == 0.5
        assert curve.evaluate(2.0) == 2.0
        assert curve.evaluate(-3.0) == 3.0
        assert curve.lipschitz() == 1.0

    def test_kind_validation(self):
        mountain = [0.0, 1.0, 0.0]
        valley = [1.0, 0.0, 1.0]
        EffectiveCurve([-1, 0, 1], valley).validate()
        EffectiveCurve([-1, 0, 1], mountain, kind="anticoercive").validate()
        with pytest.raises(ValueError):
            EffectiveCurve([-1, 0, 1], mountain).validate()
        with pytest.raises(ValueError):
            EffectiveCurve([-1, 0, 1], valley, kind="anticoercive").validate()

    @pytest.mark.parametrize("end, values, slope", [
        ("left", [0.0, 0.25, 0.0, 1.0, 2.0], "0.25"),
        ("right", [2.0, 1.0, 0.0, 0.25, 0.125], "-0.125")])
    def test_shape_error_names_curve_and_end(self, end, values, slope):
        curve = EffectiveCurve([-2.0, -1.0, 0.0, 1.0, 2.0], values,
                               [0.0, 1e-3, 0.0, 0.0, 0.0], "formula")
        bound = "<= 0.001" if end == "left" else ">= -0.001"
        with pytest.raises(ValueError, match=re.escape(
                f"coercive curve does not rise at the ends: the formula "
                f"curve's {end} end slope is {slope} between p=")) as err:
            curve.validate()
        assert str(err.value).endswith(f"allowed slope there is {bound}")

    def test_continuity_bound(self):
        jumpy = EffectiveCurve([0.0, 0.1, 0.2], [0.0, 5.0, 0.1],
                               kind="anticoercive")
        with pytest.raises(ValueError):
            jumpy.validate(lipschitz=1.0)

    def test_rejects_bad_sampling(self):
        with pytest.raises(ValueError):
            EffectiveCurve([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            EffectiveCurve([0.0, 1.0], [1.0, 1.0, 1.0])


class TestSymmetries:
    def test_even_x_independent_both_zero(self):
        flat = Piece(AbsShift(0.0, 1.0, 0.25))
        rep = verify_symmetries(flat, [-1.0, 0.0, 1.5], None,
                                [0.3, 0.15, 0.08], Grid(128))
        assert rep["negation"]["max"] == 0.0
        assert rep["evenness"]["max"] == 0.0

    def test_negation_involution_bit_exact(self, sin_sq_medium):
        piece = Piece(AbsShift(1.0, 1.0, 0.0), "additive", 0)
        twice = piece.negate_dual().negate_dual()
        sched = [0.3, 0.15, 0.08]
        a = estimate_effective(piece, [0.5], sin_sq_medium, sched, Grid(128))
        b = estimate_effective(twice, [0.5], sin_sq_medium, sched, Grid(128))
        assert a["value"] == b["value"]

    def test_shifted_piece_duality(self, sin_sq_medium):
        piece = Piece(AbsShift(1.0, 1.0, 0.0), "additive", 0)
        rep = verify_symmetries(piece, [-1.0, 0.5, 2.0], sin_sq_medium,
                                [0.1, 0.04, 0.02], Grid(512))
        for disc, bar in zip(rep["negation"]["discrepancy"],
                             rep["negation"]["bars"]):
            assert disc <= 2.0 * bar + 5e-3
        for disc, bar in zip(rep["evenness"]["discrepancy"],
                             rep["evenness"]["bars"]):
            assert disc <= 2.0 * bar + 5e-3
        assert rep["negation"]["max"] <= 1.5e-2
        assert rep["evenness"]["max"] <= 1.5e-2

    def test_quasiconcave_skips_evenness(self, sin_sq_medium):
        hat = Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0)
        rep = verify_symmetries(hat, [0.0, 1.0], sin_sq_medium,
                                [0.3, 0.15, 0.08], Grid(128))
        assert rep["evenness"] is None
        assert rep["negation"]["max"] <= 1.5e-2

