"""Stable-pair analysis, contact fields, chains, thin level sets.

Expected values are hand-derived for piecewise-linear pairs. The
grid-scan references of _reference.py agree with the exact analysis
wherever their scan is exact: where a crossing lands on a grid node or
in a cell that holds no kink.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from _reference import (condition_e_per_x, contact_fields_per_x,
                        per_seed_hypotheses)
from minmax_hj.config import ExperimentConfig
from minmax_hj.errors import HypothesisError
from minmax_hj.family import (MinMaxFamily, Piece, PieceTable, reorder_family,
                              validate_ordering)
from minmax_hj.harness import analyze_hypotheses
from minmax_hj.media import MediumSpec, medium_table, sample_realization
from minmax_hj.pairs import (STABILITY_RTOL, analyze_pair, check_condition_e,
                             check_monotonicity, contact_fields)
from minmax_hj.profiles import (AbsShift, NegatedAbs, PiecewiseMonotone,
                                piecewise_linear)

ROOT = Path(__file__).resolve().parent.parent

# the references' grid: h = 1/256, wide enough for every region here
BOX = (-8.0, 8.0)
N_P = 4097
# the 32 x-nodes k/32 of the grid scan: every 128th node of the table
OLD_NODES = slice(None, None, 128)


class Polyline:
    """A piecewise-linear profile outside the catalogue (two valleys, a
    W): the accessor and the values the analysis reads."""

    def __init__(self, breaks, values, tails):
        self.breaks = np.array(breaks, dtype=float)
        self.values = np.array(values, dtype=float)
        self.tails = tails

    def kinks(self):
        return self.breaks, self.tails

    def __call__(self, p):
        return piecewise_linear(p, self.breaks, self.values, self.tails)


TWO_VALLEYS = Polyline([-2.0, 0.0, 2.0], [0.0, 2.0, 0.0], (-1.0, 1.0))


def abs_pair(a, b, c=0.0):
    """V = |p| - a + c, L = b - |p| + c at a frozen medium value c."""
    return ((AbsShift(0.0, 1.0, -a), 1.0, c),
            (NegatedAbs(0.0, 1.0, b), 1.0, c))


def analyze(V, L):
    """analyze_pair on one row, as scalars."""
    return {key: v[0] for key, v in
            analyze_pair((V, 1.0, 0.0), (L, 1.0, 0.0)).items()}


class TestAnalyzePair:
    def test_symmetric_pair_contact_on_nodes(self):
        rep = analyze_pair(*abs_pair(1.0, 1.0, 0.25))
        assert rep["contact_value_V"][0] == 0.25
        assert rep["contact_value_Lambda"][0] == 0.25
        assert rep["boundary_variation"][0] == 0.0
        assert rep["stable"][0]

    def test_empty_region(self):
        rep = analyze(AbsShift(0.0, 1.0), NegatedAbs(0.0, 0.5, -1.0))
        assert np.isnan(rep["outside_gap"])  # no region, no boundary
        assert rep["contact_value_V"] == 0.0
        assert rep["contact_value_Lambda"] == -1.0
        assert rep["stable"]

    def test_tangent_touch_single_point(self):
        # L peaks exactly at V's value there; region degenerates to a point
        rep = analyze(AbsShift(0.5, 1.0), NegatedAbs(0.5, 1.0))
        assert rep["contact_value_V"] == 0.0
        assert rep["V_low"] == rep["V_high"] == 0.0
        assert rep["stable"]

    def test_shifted_peak_unstable(self):
        # boundary at -3/2 and 3/2 with V values 5/2 and 1/2
        rep = analyze(AbsShift(1.0, 1.0), NegatedAbs(-1.0, 1.0, 3.0))
        assert rep["boundary_variation"] == 2.0
        assert (rep["V_low"], rep["V_high"]) == (0.5, 2.5)
        assert not rep["stable"]
        # mean of the two boundary values
        assert rep["contact_value_V"] == 1.5

    def test_outside_dip_unstable(self):
        # constant boundary value 1/3 around -2, but V dips to 0 at 2
        rep = analyze(TWO_VALLEYS, NegatedAbs(-2.0, 5.0, 2.0))
        assert rep["boundary_variation"] <= rep["tolerance"]
        assert rep["outside_gap"] == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert not rep["stable"]

    def test_box_too_small_when_region_touches_edge(self):
        # the grid scan refused a box that cut the region |p| <= 3 off;
        # the exact analysis has no box and finds the region whole
        rep = analyze_pair(*abs_pair(5.0, 1.0))
        assert rep["contact_value_V"][0] == -2.0
        assert rep["contact_value_Lambda"][0] == -2.0
        assert rep["stable"][0]

    def test_box_too_small_when_minimum_on_edge(self):
        # nor a minimum of V beyond where a box would end
        rep = analyze(AbsShift(10.0, 1.0), NegatedAbs(0.0, 1.0, -1.0))
        assert rep["contact_value_V"] == 0.0
        assert rep["contact_value_Lambda"] == -1.0
        assert rep["stable"]

    def test_two_components(self):
        L = Polyline([-2.0, 0.0, 2.0], [0.25, -1.75, 0.25], (1.0, -1.0))
        rep = analyze(TWO_VALLEYS, L)
        assert rep["boundary_variation"] == 0.0
        assert rep["stable"]
        assert rep["contact_value_V"] == 0.125

    def test_rows_share_one_profile_pair(self):
        # additive pieces on one channel: c shifts V and L alike, so
        # every row crosses at |p| = 1 and m = c bit for bit
        c = np.array([0.1, 0.7, -0.3])
        rep = analyze_pair(*abs_pair(1.0, 1.0, c))
        assert np.array_equal(rep["contact_value_V"], c)
        assert np.array_equal(rep["contact_value_Lambda"], c)
        assert rep["stable"].all()

    def test_stability_is_decided_to_rounding(self):
        # boundary values 1e-9 apart are unstable; the tolerance is a
        # rounding one, relative to the values' scale
        V = AbsShift(0.0, 1.0, -1.0)
        rep = analyze(V, NegatedAbs(2e-9, 1.0, 1.0))
        assert rep["boundary_variation"] == pytest.approx(2e-9, rel=1e-6)
        assert not rep["stable"]
        assert rep["tolerance"] == STABILITY_RTOL * 1.0


def make_family(specs, medium_kwargs=None):
    """specs: list of (a_k, b_k, channel) for |p|-a+c and b-|p|+c pieces."""
    checks = [Piece(AbsShift(0.0, 1.0, -a), "additive", ch)
              for a, _, ch in specs]
    hats = [Piece(NegatedAbs(0.0, 1.0, b), "additive", ch)
            for _, b, ch in specs]
    return MinMaxFamily(checks, hats)


def channel(medium, idx):
    return medium.evaluate_channel(idx, medium_table(medium))


class TestContactFields:
    def test_base_family_constants(self, base_family, sin_sq_medium):
        consts = contact_fields(PieceTable(base_family, [sin_sq_medium]))
        expected = channel(sin_sq_medium, 0)
        # m = sin^2 and M = 1 + sin^2 at every node of the table, exactly
        assert np.array_equal(consts["m_fields"][0][0], expected)
        assert consts["m_bar"][0] == 1.0
        assert np.array_equal(consts["M_fields"][0][0], 1.0 + expected)
        assert consts["M_lower"][0] == 1.0
        assert consts["all_pairs_stable"]
        assert consts["n_unstable"] == 0 and consts["witnesses"] == []

    def test_two_level_constants(self, two_level_family, two_channel_medium):
        consts = contact_fields(PieceTable(two_level_family,
                                           [two_channel_medium]))
        s2, c2 = channel(two_channel_medium, 0), channel(two_channel_medium, 1)
        assert np.allclose(consts["m_fields"][0][0], s2, atol=1e-13, rtol=0.0)
        assert np.allclose(consts["m_fields"][0][1], c2, atol=1e-13, rtol=0.0)
        # cross pair: hat_2 against check_1, contact on the hat side
        expected_M2 = 1.0 + 0.5 * s2 + 0.5 * c2
        assert np.allclose(consts["M_fields"][0][1], expected_M2,
                           atol=1e-12, rtol=0.0)
        assert consts["m_bar"][0] == 1.0
        assert consts["m_bar"][1] == 0.5
        assert consts["M_lower"][0] == 1.0
        assert consts["M_lower"][1] == 1.25
        assert consts["all_pairs_stable"]

    def test_reordered_family_same_constants(self, two_level_family,
                                             two_channel_medium):
        # the reordered family's pieces are combined ones, which only the
        # grid-scan reference reads: on the old x-nodes it finds the
        # original family's exact constants
        consts = contact_fields(PieceTable(two_level_family,
                                           [two_channel_medium]))
        x = medium_table(two_channel_medium)[OLD_NODES]
        m_r, M_r, _ = contact_fields_per_x(reorder_family(two_level_family),
                                           [two_channel_medium], x, BOX, N_P)
        assert np.allclose(consts["m_fields"][0][:, OLD_NODES], m_r[0],
                           atol=1e-13, rtol=0.0)
        assert np.allclose(consts["M_fields"][0][:, OLD_NODES], M_r[0],
                           atol=1e-13, rtol=0.0)

    def test_multiple_realizations_extrema(self):
        spec = MediumSpec("checkerboard", 1.0,
                          [{"cell": 0.25, "low": 0.0, "high": 1.0}])
        media = [sample_realization(spec, s) for s in (0, 1, 2)]
        fam = make_family([(1.0, 1.0, 0)])
        consts = contact_fields(PieceTable(fam, media))
        per_seed = [f[0].max() for f in consts["m_fields"]]
        assert consts["m_bar"][0] == max(per_seed)
        assert len(consts["m_fields"]) == 3
        assert consts["n_states"] == [4, 4, 4]

    def test_unstable_family_witnessed(self, sin_sq_medium):
        check = Piece(AbsShift(1.0, 1.0, 0.0), "additive", 0)
        hat = Piece(NegatedAbs(-1.0, 1.0, 3.0), "additive", 0)
        fam = MinMaxFamily([check], [hat])
        consts = contact_fields(PieceTable(fam, [sin_sq_medium]))
        assert not consts["all_pairs_stable"]
        assert consts["n_unstable"] == 4096
        assert len(consts["witnesses"]) == 8
        w = consts["witnesses"][0]
        assert w["level"] == 1 and w["x"] == 0.0
        assert w["variation"] == 2.0
        assert w["boundary_values_V"] == [0.5, 2.5]


class TestMonotonicity:
    def test_two_level_strict(self, two_level_family, two_channel_medium):
        consts = contact_fields(PieceTable(two_level_family,
                                           [two_channel_medium]))
        assert check_monotonicity(consts)["monotone"]
        assert check_monotonicity(consts, strict=True)["monotone"]

    def test_upper_chain_violation(self, sin_sq_medium):
        # level 1 rides a 0.2-amplitude field, level 2 the full one:
        # m_bar = (0.2, 1.0) breaks the non-increasing chain
        checks = [Piece(AbsShift(0.0, 1.0, -1.0), "additive", 0, scale=0.2),
                  Piece(AbsShift(0.0, 1.0, -3.0), "additive", 0)]
        hats = [Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0, scale=0.2),
                Piece(NegatedAbs(0.0, 1.0, 3.0), "additive", 0)]
        fam = MinMaxFamily(checks, hats)
        consts = contact_fields(PieceTable(fam, [sin_sq_medium]))
        assert consts["m_bar"][0] == pytest.approx(0.2)
        assert consts["m_bar"][1] == 1.0
        verdict = check_monotonicity(consts)
        assert not verdict["monotone"]
        assert len(verdict["failures"]) == 1
        assert verdict["failures"][0]["chain"] == "upper"
        assert verdict["failures"][0]["index"] == 1
        assert verdict["failures"][0]["values"][1] == 1.0

    def test_tie_fails_strict_only(self, sin_sq_medium):
        fam = make_family([(1.0, 1.0, 0), (4.0, 4.0, 0)])
        consts = contact_fields(PieceTable(fam, [sin_sq_medium]))
        assert consts["m_bar"][0] == consts["m_bar"][1] == 1.0
        assert consts["M_lower"][0] == 1.0
        assert consts["M_lower"][1] == 1.5
        assert check_monotonicity(consts)["monotone"]
        assert not check_monotonicity(consts, strict=True)["monotone"]


def _condition_e(family, medium):
    table = PieceTable(family, [medium])
    return check_condition_e(table, contact_fields(table)["m_fields"][:, 0])


class TestConditionE:
    def test_sharp_minimum_holds(self, base_family, sin_sq_medium):
        out = _condition_e(base_family, sin_sq_medium)
        assert out["holds"]
        assert out["witnesses"] == []

    def test_flat_bottom_fails(self, sin_sq_medium):
        valley = PiecewiseMonotone([-2.0, -1.0, 1.0, 2.0],
                                   [1.0, 0.0, 0.0, 1.0], "valley")
        check = Piece(valley, None)
        hat = Piece(NegatedAbs(0.0, 1.0, 1.0), None)
        fam = MinMaxFamily([check], [hat])
        out = _condition_e(fam, sin_sq_medium)
        assert not out["holds"]
        assert len(out["witnesses"]) == 8
        w = out["witnesses"][0]
        assert w["piece"] == "check" and w["x"] == 0.0
        assert -1.0 < w["p"] < 1.0
        assert w["contact"] == 0.0

    def test_flat_bottom_above_the_contact_holds(self, sin_sq_medium):
        # the same flat valley, but the hat meets it on its sloped part
        valley = PiecewiseMonotone([-2.0, -1.0, 1.0, 2.0],
                                   [1.0, 0.0, 0.0, 1.0], "valley")
        fam = MinMaxFamily([Piece(valley, None)],
                           [Piece(NegatedAbs(0.0, 1.0, 2.0), None)])
        assert _condition_e(fam, sin_sq_medium)["holds"]


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _media_config(tmp_path, name, seed=41):
    return ExperimentConfig.from_yaml(next(
        path for path, _, _ in _load_workloads()._media_configs(
            seed, str(tmp_path)) if Path(path).stem == name))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def _witness_key(w):
    return w["level"], w["kind"], w["x"], w["seed"], w["variation"]


class TestBatchMatchesPerX:
    """The exact analysis against the per-x grid-scan references in
    _reference.py: the fields at the old 32 x-nodes, bit for bit where
    the crossings land on grid nodes and to rounding where they fall in
    kink-free cells, every witness, and the thin-level-set verdict."""

    def assert_matches(self, cfg, on_grid=True):
        media = [sample_realization(cfg.medium_spec, s) for s in cfg.seeds]
        consts = contact_fields(PieceTable(cfg.family, media))
        x = medium_table(media[0])[OLD_NODES]
        m_ref, M_ref, w_ref = contact_fields_per_x(cfg.family, media, x,
                                                   BOX, N_P)
        for got, want in ((consts["m_fields"], m_ref),
                          (consts["M_fields"], M_ref)):
            got = got[:, :, OLD_NODES]
            # off the grid nodes the scan interpolates in a kink-free
            # cell, exact up to rounding
            assert all(map(_same_bits, got, want)) if on_grid else \
                np.allclose(got, want, atol=1e-13, rtol=0.0)
        assert (consts["n_unstable"] == 0) == (w_ref == [])
        # each witness is one the reference finds at its node and seed
        for w in consts["witnesses"]:
            medium = media[cfg.seeds.index(w["seed"])]
            _, _, at = contact_fields_per_x(cfg.family, [medium], [w["x"]],
                                            BOX, N_P)
            assert _witness_key(w) in [_witness_key(r) for r in at]
        for medium, m in zip(media, consts["m_fields"]):
            out = check_condition_e(PieceTable(cfg.family, [medium]), m[:1])
            ref = condition_e_per_x(cfg.family, medium, x, m[0][OLD_NODES],
                                    BOX, N_P)
            assert out["holds"] == ref["holds"]
        return consts

    @pytest.mark.parametrize("seed", [1, 2, 41])
    def test_seeded_media(self, tmp_path, seed):
        # sym1, tie2, rise2 and skew1 on checkerboard and quasiperiodic
        # media, two draws each, three medium seeds per config
        configs = _load_workloads()._media_configs(seed, str(tmp_path))
        assert len(configs) == 16
        for path, _, _ in configs:
            self.assert_matches(ExperimentConfig.from_yaml(path))

    @pytest.mark.parametrize("name", ["unstable_pair",
                                      "monotonicity_violation", "base_case",
                                      "ell2_strict", "xindep"])
    def test_shipped_configs(self, name):
        # ell2_strict's cross pair crosses at |p| = 2 + (c_2 - c_1) / 2
        consts = self.assert_matches(ExperimentConfig.from_yaml(
            ROOT / "configs" / f"{name}.yaml"), name != "ell2_strict")
        if name == "unstable_pair":
            # an x-independent pair: unstable at every node alike
            assert consts["n_unstable"] == 4096
            assert len(consts["witnesses"]) == 8

    @pytest.mark.parametrize("name, seeds", [
        ("checkerboard_skew1_0", [7, 7, 9]),    # a drawn medium, twice
        ("quasiperiodic_skew1_0", None)])       # three seeds, one medium
    def test_repeated_media_copy_witnesses_with_their_seeds(
            self, tmp_path, name, seeds):
        cfg = _media_config(tmp_path, name)
        cfg.seeds = seeds or cfg.seeds
        assert len(cfg.seeds) == 3
        consts = self.assert_matches(cfg)
        # skew1 is unstable at every node of every medium, each medium
        # counted under its own seed; the first 8 are the first seed's
        assert consts["n_unstable"] == 3 * 4096
        assert [w["seed"] for w in consts["witnesses"]] == [cfg.seeds[0]] * 8
        assert consts["seeds"] == cfg.seeds
        m = consts["m_fields"]
        assert _same_bits(m[0], m[1])
        assert consts["n_states"][0] == consts["n_states"][1]

    def test_small_box_names_the_reference_node_and_seed(self):
        # |p| - 1 + V against 1 - |p| + 2V: the region reaches the box
        # [-1.45, 1.45] where V >= 0.9, which seed 2 never draws and seed
        # 0 first draws in cell 5 of 8, at x = 0.625. The grid-scan
        # reference needs a box that holds it; the exact analysis reads
        # no box, and agrees with the reference on one that does
        spec = MediumSpec("checkerboard", 1.0, [
            {"cell": 0.125, "low": 0.0, "high": 1.0}])
        fam = MinMaxFamily([Piece(AbsShift(0.0, 1.0, -1.0), "additive", 0)],
                           [Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0,
                                  scale=2.0)])
        media = [sample_realization(spec, s) for s in (2, 2, 0)]
        x = np.linspace(0.0, 1.0, 33)[:-1]
        with pytest.raises(ValueError) as ref:
            contact_fields_per_x(fam, media, x, (-1.45, 1.45), 2049)
        assert str(ref.value) == (
            "level 1 level pair at x=0.625, seed 0: comparison region "
            "touches the gradient box")
        consts = contact_fields(PieceTable(fam, media))
        m_ref, M_ref, _ = contact_fields_per_x(fam, media, x, BOX, N_P)
        for got, want in ((consts["m_fields"], m_ref),
                          (consts["M_fields"], M_ref)):
            assert np.allclose(got[:, :, OLD_NODES], want, atol=1e-13,
                               rtol=0.0)

    def test_witness_order_is_x_then_level_then_pair(self):
        # level pair 2: |p - 1| against 1 + 2 V - |p + 1|, V = cos^2(pi x),
        # meets only where V >= 1/2 and then is unstable (boundary values
        # differ by 2); cross pair 2 against |p| - 1 + V is unstable at
        # every x; level 1 is the stable base pair
        spec = MediumSpec("periodic", 1.0, [{"formula": "cos_sq"}])
        medium = sample_realization(spec, 0)
        checks = [Piece(AbsShift(0.0, 1.0, -1.0), "additive", 0),
                  Piece(AbsShift(1.0, 1.0, 0.0))]
        hats = [Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0),
                Piece(NegatedAbs(-1.0, 1.0, 1.0), "additive", 0, scale=2.0)]
        fam = MinMaxFamily(checks, hats)
        consts = contact_fields(PieceTable(fam, [medium]))
        x = medium_table(medium)
        _, _, w_ref = contact_fields_per_x(fam, [medium], x[:4], BOX, N_P)
        order = [(w["x"], w["level"], w["kind"]) for w in consts["witnesses"]]
        assert order == [(float(xj), 2, kind) for xj in x[:4]
                         for kind in ("level pair", "cross pair")]
        assert [(w["level"], w["kind"], w["x"]) for w in w_ref] == \
            [(w["level"], w["kind"], w["x"]) for w in consts["witnesses"]]
        assert [w["variation"] for w in consts["witnesses"]] == \
            pytest.approx([w["variation"] for w in w_ref], abs=1e-12)
        # level pair 2 meets where L - V = 2 V - 1 >= 0 at the kink -1
        c = channel(medium, 0)
        assert consts["n_unstable"] == 4096 + np.count_nonzero(
            -1.0 + 2.0 * c >= 0.0)


class TestExactGate:
    """What the exact analysis decides that the grid scan could not."""

    @pytest.mark.parametrize("seed", [1, 2, 41])
    @pytest.mark.parametrize("family", ["sym1", "tie2"])
    def test_contact_maximum_is_the_channel_maximum(self, tmp_path, seed,
                                                    family):
        # every piece couples additively to c: m = c by construction, so
        # m_bar is the channel's maximum on the oracle's table
        for draw in (0, 1):
            cfg = _media_config(tmp_path, f"quasiperiodic_{family}_{draw}",
                                seed)
            medium = sample_realization(cfg.medium_spec, cfg.seeds[0])
            m_bar = analyze_hypotheses(cfg)["constants"]["m_bar"]
            assert (m_bar == channel(medium, 0).max()).all()

    @pytest.mark.parametrize("kind", ["checkerboard", "quasiperiodic"])
    def test_tie_chains_are_equal_bit_for_bit(self, tmp_path, kind):
        analysis = analyze_hypotheses(_media_config(tmp_path,
                                                    f"{kind}_tie2_0"))
        consts = analysis["constants"]
        assert _same_bits(consts["m_bar"][0], consts["m_bar"][1])
        assert _same_bits(consts["M_lower"][0], consts["M_lower"][1])
        verdicts = analysis["verdicts"]
        assert verdicts["contact_monotonicity"]
        assert not verdicts["contact_monotonicity_strict"]

    def test_check_media_verdicts_over_twenty_seeds(self, tmp_path):
        # every generated config's verdicts are known by construction
        workloads = _load_workloads()
        for seed in range(1, 21):
            for path, verdicts, _ in workloads._media_configs(
                    seed, str(tmp_path)):
                got = analyze_hypotheses(ExperimentConfig.from_yaml(path))
                assert got["verdicts"] == verdicts, (seed, path)


class TestBatchIsTheOnlyShape:
    def test_piece_evaluations_do_not_grow_with_x_nodes(self, monkeypatch):
        calls = []
        for cls in (AbsShift, NegatedAbs):
            orig = cls.__call__
            monkeypatch.setattr(cls, "__call__",
                                lambda self, p, orig=orig:
                                calls.append(1) or orig(self, p))

        def count(cells, per_x=False):
            spec = MediumSpec("checkerboard", 1.0, [
                {"cell": 1.0 / cells, "low": 0.0, "high": 1.0}])
            medium = sample_realization(spec, 3)
            fam = make_family([(1.0, 1.0, 0), (3.0, 3.0, 0)])
            calls.clear()
            if per_x:
                x = np.linspace(0.0, 1.0, cells + 1)[:-1]
                m = contact_fields_per_x(fam, [medium], x, BOX, N_P)[0][0]
                condition_e_per_x(fam, medium, x, m[0], BOX, N_P)
            else:
                table = PieceTable(fam, [medium])
                m = contact_fields(table)["m_fields"]
                check_condition_e(table, m[:, 0])
            return len(calls)

        assert count(4) == count(64) > 0
        # the counter does see the per-x reference's calls grow
        assert count(64, per_x=True) > count(4, per_x=True) > count(4)

    def test_one_row_per_distinct_medium_state(self, monkeypatch):
        # four cells on the table's 4096 nodes: each pair is analyzed on
        # a 4-row table
        rows = []

        def spy(V, L):
            rows.append(np.broadcast_shapes(*(np.shape(c) for c in
                                              V[1:] + L[1:])))
            return analyze_pair(V, L)
        monkeypatch.setattr("minmax_hj.pairs.analyze_pair", spy)
        spec = MediumSpec("checkerboard", 1.0, [
            {"cell": 0.25, "low": 0.0, "high": 1.0}])
        consts = contact_fields(PieceTable(make_family([(1.0, 1.0, 0)]),
                                           [sample_realization(spec, 0)]))
        assert rows == [(4,)]
        assert np.unique(consts["m_fields"]).size == 4
        assert consts["m_fields"].shape == (1, 1, 4096)

    def test_piece_evaluations_do_not_grow_with_seeds(self, monkeypatch,
                                                      tmp_path):
        # every seed of a quasiperiodic medium draws the same medium
        cfg = _media_config(tmp_path, "quasiperiodic_tie2_0")
        calls = []
        for cls in (AbsShift, NegatedAbs):
            orig = cls.__call__
            monkeypatch.setattr(cls, "__call__",
                                lambda self, p, orig=orig:
                                calls.append(1) or orig(self, p))

        def count(seeds):
            cfg.seeds = seeds
            calls.clear()
            analyze_hypotheses(cfg)
            return len(calls)

        seeds = list(cfg.seeds)
        assert len(seeds) == 3
        assert count(seeds[:1]) == count(seeds) > 0


class TestSampleTable:
    """One ``PieceTable`` for the whole sample against one per seed
    (``per_seed_hypotheses``)."""

    @staticmethod
    def checkerboard(cells, high=1.0):
        return MediumSpec("checkerboard", 1.0, [
            {"cell": 1.0 / cells, "low": 0.0, "high": high}])

    def test_ordering_witness_of_the_second_draw(self):
        # check_1 = |p| - 1 + V falls below check_2 = |p| - 0.5 where
        # V < 0.5: of the two cells, seeds 1 and 4 draw none such and
        # seed 0 draws (0.64, 0.27)
        fam = MinMaxFamily(
            [Piece(AbsShift(0.0, 1.0, -1.0), "additive", 0),
             Piece(AbsShift(0.0, 1.0, -0.5))],
            [Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0),
             Piece(NegatedAbs(0.0, 1.0, 3.0))])
        media = [sample_realization(self.checkerboard(2), s)
                 for s in (1, 0, 4)]
        with pytest.raises(HypothesisError) as err:
            validate_ordering(PieceTable(fam, media))
        want = per_seed_hypotheses(fam, media)["ordering"]
        assert err.value.witness == want
        assert want["seed"] == 0 and want["x"] == 0.5

    def test_thin_level_sets_of_the_second_draw(self):
        # the hat 0.5 - |p| + V meets the valley on its flat bottom, at
        # the contact value 0, where V <= 1/2: only seed 0 draws such a
        # cell, its second
        valley = PiecewiseMonotone([-2.0, -1.0, 1.0, 2.0],
                                   [1.0, 0.0, 0.0, 1.0], "valley")
        fam = MinMaxFamily([Piece(valley)],
                           [Piece(NegatedAbs(0.0, 1.0, 0.5), "additive", 0)])
        media = [sample_realization(self.checkerboard(2), s)
                 for s in (1, 0, 4)]
        table = PieceTable(fam, media)
        got = check_condition_e(table, contact_fields(table)["m_fields"][:, 0])
        assert got == per_seed_hypotheses(fam, media)["level_set_thin"]
        assert [w["x"] for w in got["witnesses"]] == \
            (0.5 + np.arange(8) / 4096).tolist()

    def test_unstable_pairs_in_two_seeds(self):
        # |p - 1| against 1 + 2 V - |p + 1| meets, and is unstable, only
        # where V >= 1/2: in 2 of 2048 cells (4 nodes) of seed 0, 2 of
        # seed 7 and 3 of seed 2
        fam = MinMaxFamily([Piece(AbsShift(1.0, 1.0, 0.0))],
                           [Piece(NegatedAbs(-1.0, 1.0, 1.0), "additive", 0,
                                  scale=2.0)])
        media = [sample_realization(self.checkerboard(2048, 0.501), s)
                 for s in (0, 7, 2)]
        consts = contact_fields(PieceTable(fam, media))
        want = per_seed_hypotheses(fam, media)
        assert consts["witnesses"] == want["witnesses"]
        assert [w["seed"] for w in consts["witnesses"]] == [0] * 4 + [7] * 4
        assert consts["n_unstable"] == want["n_unstable"] == 14
        assert consts["n_states"] == want["n_states"] == [2048] * 3
        assert _same_bits(consts["m_bar"], want["m_bar"])
        assert _same_bits(consts["M_lower"], want["M_lower"])

    def test_seeds_that_draw_one_medium_share_its_rows(self):
        fam = make_family([(1.0, 1.0, 0), (3.0, 3.0, 0)])
        spec = self.checkerboard(4)
        media = [sample_realization(spec, s) for s in (7, 7, 9)]
        table = PieceTable(fam, media)
        assert table.medium_of.tolist() == [0, 0, 1]
        assert table.inverse.shape == (2, 4096) and table.x.size == 8
        for medium, d in zip(media, table.medium_of):
            one = PieceTable(fam, [medium])
            for rows, want in zip(table.checks + table.hats,
                                  one.checks + one.hats):
                for got, ref in zip(rows[1:], want[1:]):
                    assert _same_bits(got[table.inverse[d]],
                                      ref[one.inverse[0]])
        consts = contact_fields(table)
        assert consts["n_states"] == per_seed_hypotheses(
            fam, media)["n_states"] == [4, 4, 4]


def test_witness_is_json_ready(sin_sq_medium):
    fam = MinMaxFamily([Piece(AbsShift(1.0, 1.0, 0.0), "additive", 0)],
                       [Piece(NegatedAbs(-1.0, 1.0, 3.0), "additive", 0)])
    w = contact_fields(PieceTable(fam, [sin_sq_medium]))["witnesses"][0]
    assert json.loads(json.dumps(w)) == w
