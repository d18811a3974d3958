"""Stable-pair analysis, contact fields, chains, thin level sets.

Expected values are hand-derived for piecewise-linear pairs whose
crossings land on grid nodes or inside kink-free cells, where linear
interpolation is exact.
"""

import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _reference import condition_e_per_x, contact_fields_per_x
from minmax_hj.config import ExperimentConfig
from minmax_hj.errors import BoxTooSmallError
from minmax_hj.family import MinMaxFamily, Piece, reorder_family
from minmax_hj.harness import analyze_hypotheses
from minmax_hj.media import MediumSpec, sample_realization
from minmax_hj.pairs import (Workspace, analyze_pair, check_condition_e,
                             check_monotonicity, contact_fields, expand_p_box)
from minmax_hj.profiles import AbsShift, NegatedAbs, PiecewiseMonotone

ROOT = Path(__file__).resolve().parent.parent

BOX = (-4.0, 4.0)
N_P = 2049  # h = 1/256 on BOX, dyadic nodes


def abs_pair(a, b, c=0.0):
    """V = |p| - a + c, L = b - |p| + c at a frozen medium value c."""
    return (lambda p: np.abs(p) - a + c,
            lambda p: b - np.abs(p) + c)


class TestAnalyzePair:
    def test_symmetric_pair_contact_on_nodes(self):
        V, L = abs_pair(1.0, 1.0, 0.25)
        rep = analyze_pair(V, L, BOX, N_P)
        assert rep["contact_value_V"][0] == 0.25
        assert rep["contact_value_Lambda"][0] == 0.25
        assert rep["boundary_variation"][0] == 0.0
        assert rep["stable"][0]

    def test_empty_region(self):
        rep = analyze_pair(lambda p: np.abs(p),
                           lambda p: -1.0 - 0.5 * np.abs(p), BOX, N_P)
        assert np.isnan(rep["outside_gap"][0])  # no region, no boundary
        assert rep["contact_value_V"][0] == 0.0
        assert rep["contact_value_Lambda"][0] == -1.0
        assert rep["stable"][0]

    def test_tangent_touch_single_point(self):
        # L peaks exactly at V's value there; region degenerates to a point
        V = lambda p: np.abs(p - 0.5)
        L = lambda p: -np.abs(p - 0.5)
        rep = analyze_pair(V, L, BOX, N_P)
        assert rep["contact_value_V"][0] == 0.0
        assert rep["stable"][0]

    def test_shifted_peak_unstable(self):
        # boundary at -3/2 and 3/2 with V values 5/2 and 1/2
        V = lambda p: np.abs(p - 1.0)
        L = lambda p: 3.0 - np.abs(p + 1.0)
        rep = analyze_pair(V, L, BOX, N_P)
        assert rep["boundary_variation"][0] == 2.0
        assert not rep["stable"][0]
        # mean of the two boundary values
        assert rep["contact_value_V"][0] == 1.5

    def test_outside_dip_unstable(self):
        # constant boundary value, but V dips lower outside the region
        V = lambda p: np.minimum(np.abs(p + 2.0), np.abs(p - 2.0))
        L = lambda p: 2.0 - 5.0 * np.abs(p + 2.0)
        rep = analyze_pair(V, L, BOX, N_P)
        assert rep["boundary_variation"][0] <= rep["tau_b"][0]
        assert rep["outside_gap"][0] < -rep["tau_b"][0]
        assert not rep["stable"][0]

    def test_box_too_small_when_region_touches_edge(self):
        V, L = abs_pair(5.0, 1.0)
        with pytest.raises(BoxTooSmallError):
            analyze_pair(V, L, (-2.0, 2.0), 257)

    def test_box_too_small_when_minimum_on_edge(self):
        with pytest.raises(BoxTooSmallError):
            analyze_pair(lambda p: -p, lambda p: -p - 1.0, BOX, N_P)

    def test_two_components(self):
        V = lambda p: np.minimum(np.abs(p + 2.0), np.abs(p - 2.0))
        L = lambda p: 0.25 - np.abs(np.abs(p) - 2.0)
        rep = analyze_pair(V, L, BOX, 4097)
        assert rep["boundary_variation"][0] == 0.0
        assert rep["stable"][0]
        assert rep["contact_value_V"][0] == 0.125


def make_family(specs, medium_kwargs=None):
    """specs: list of (a_k, b_k, channel) for |p|-a+c and b-|p|+c pieces."""
    checks = [Piece(AbsShift(0.0, 1.0, -a), "additive", ch)
              for a, _, ch in specs]
    hats = [Piece(NegatedAbs(0.0, 1.0, b), "additive", ch)
            for _, b, ch in specs]
    return MinMaxFamily(checks, hats)


@pytest.fixture
def x_grid():
    # includes the extrema of sin^2 and cos^2 exactly
    return np.linspace(0.0, 1.0, 33)[:-1]


class TestContactFields:
    def test_base_family_constants(self, base_family, sin_sq_medium, x_grid):
        consts = contact_fields(base_family, sin_sq_medium, x_grid, BOX, N_P)
        m = consts["m_fields"][0][0]
        expected = np.sin(np.pi * x_grid) ** 2
        assert np.allclose(m, expected, atol=1e-13, rtol=0.0)
        assert consts["m_bar"][0] == 1.0
        M = consts["M_fields"][0][0]
        assert np.allclose(M, 1.0 + expected, atol=1e-13, rtol=0.0)
        assert consts["M_lower"][0] == 1.0
        assert consts["all_pairs_stable"]

    def test_two_level_constants(self, two_level_family, two_channel_medium,
                                 x_grid):
        consts = contact_fields(two_level_family, two_channel_medium, x_grid,
                                BOX, N_P)
        s2 = np.sin(np.pi * x_grid) ** 2
        c2 = 0.5 * np.cos(np.pi * x_grid) ** 2
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
                                             two_channel_medium, x_grid):
        consts = contact_fields(two_level_family, two_channel_medium, x_grid,
                                BOX, N_P)
        consts_r = contact_fields(reorder_family(two_level_family),
                                  two_channel_medium, x_grid, BOX, N_P)
        for a, b in zip(consts["m_fields"], consts_r["m_fields"]):
            assert np.allclose(a, b, atol=1e-13, rtol=0.0)
        for a, b in zip(consts["M_fields"], consts_r["M_fields"]):
            assert np.allclose(a, b, atol=1e-13, rtol=0.0)

    def test_multiple_realizations_extrema(self, x_grid):
        spec = MediumSpec("checkerboard", 1.0,
                          [{"cell": 0.25, "low": 0.0, "high": 1.0}])
        media = [sample_realization(spec, s) for s in (0, 1, 2)]
        fam = make_family([(1.0, 1.0, 0)])
        consts = contact_fields(fam, media, x_grid, BOX, N_P)
        per_seed = [f[0].max() for f in consts["m_fields"]]
        assert consts["m_bar"][0] == max(per_seed)
        assert len(consts["m_fields"]) == 3

    def test_unstable_family_witnessed(self, sin_sq_medium, x_grid):
        check = Piece(AbsShift(1.0, 1.0, 0.0), "additive", 0)
        hat = Piece(NegatedAbs(-1.0, 1.0, 3.0), "additive", 0)
        fam = MinMaxFamily([check], [hat])
        consts = contact_fields(fam, sin_sq_medium, x_grid, BOX, N_P)
        assert not consts["all_pairs_stable"]
        w = consts["witnesses"][0]
        assert w["level"] == 1
        assert w["variation"] == pytest.approx(2.0)


class TestMonotonicity:
    def test_two_level_strict(self, two_level_family, two_channel_medium,
                              x_grid):
        consts = contact_fields(two_level_family, two_channel_medium, x_grid,
                                BOX, N_P)
        assert check_monotonicity(consts)["monotone"]
        assert check_monotonicity(consts, strict=True)["monotone"]

    def test_upper_chain_violation(self, sin_sq_medium, x_grid):
        # level 1 rides a 0.2-amplitude field, level 2 the full one:
        # m_bar = (0.2, 1.0) breaks the non-increasing chain
        checks = [Piece(AbsShift(0.0, 1.0, -1.0), "additive", 0, scale=0.2),
                  Piece(AbsShift(0.0, 1.0, -3.0), "additive", 0)]
        hats = [Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0, scale=0.2),
                Piece(NegatedAbs(0.0, 1.0, 3.0), "additive", 0)]
        fam = MinMaxFamily(checks, hats)
        consts = contact_fields(fam, sin_sq_medium, x_grid, BOX, N_P)
        assert consts["m_bar"][0] == pytest.approx(0.2)
        assert consts["m_bar"][1] == 1.0
        verdict = check_monotonicity(consts)
        assert not verdict["monotone"]
        assert len(verdict["failures"]) == 1
        assert verdict["failures"][0]["chain"] == "upper"
        assert verdict["failures"][0]["index"] == 1
        assert verdict["failures"][0]["values"][1] == 1.0

    def test_tie_fails_strict_only(self, sin_sq_medium, x_grid):
        fam = make_family([(1.0, 1.0, 0), (4.0, 4.0, 0)])
        consts = contact_fields(fam, sin_sq_medium, x_grid, (-8.0, 8.0), 4097)
        assert consts["m_bar"][0] == consts["m_bar"][1] == 1.0
        assert consts["M_lower"][0] == 1.0
        assert consts["M_lower"][1] == 1.5
        assert check_monotonicity(consts)["monotone"]
        assert not check_monotonicity(consts, strict=True)["monotone"]


def _level1_contacts(family, medium, x_nodes):
    return contact_fields(family, medium, x_nodes, BOX, N_P)["m_fields"][0][0]


class TestConditionE:
    def test_sharp_minimum_holds(self, base_family, sin_sq_medium):
        x_nodes = np.linspace(0.0, 1.0, 17)[:-1]
        out = check_condition_e(
            base_family, sin_sq_medium, x_nodes,
            _level1_contacts(base_family, sin_sq_medium, x_nodes), BOX, N_P)
        assert out["holds"]
        assert out["witnesses"] == []

    def test_flat_bottom_fails(self, sin_sq_medium):
        valley = PiecewiseMonotone([-2.0, -1.0, 1.0, 2.0],
                                   [1.0, 0.0, 0.0, 1.0], "valley")
        check = Piece(valley, None)
        hat = Piece(NegatedAbs(0.0, 1.0, 1.0), None)
        fam = MinMaxFamily([check], [hat])
        x_nodes = np.array([0.0, 0.3])
        out = check_condition_e(
            fam, sin_sq_medium, x_nodes,
            _level1_contacts(fam, sin_sq_medium, x_nodes), BOX, N_P)
        assert not out["holds"]
        w = out["witnesses"][0]
        assert w["piece"] == "check"
        assert -1.0 < w["p"] < 1.0
        assert w["contact"] == 0.0


class TestExpandBox:
    def test_grows_until_checks_dominate(self, base_family, sin_sq_medium):
        assert expand_p_box(base_family, sin_sq_medium) == (-4.0, 4.0)
        # |p| - 10 + V stays below 1 - |p| + V at |p| = 4, not at 8
        deep = MinMaxFamily(
            [Piece(AbsShift(0.0, 1.0, -10.0), "additive", 0)],
            [Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0)])
        assert expand_p_box(deep, sin_sq_medium) == (-8.0, 8.0)

    def test_widest_box_over_realizations(self):
        # check |p| dominates hat 10 V - |p| at |p| = R once 2R > 10 max V:
        # seed 0's cells stay below 0.8 (R = 4), seed 1 reaches 0.95 (R = 8)
        spec = MediumSpec("checkerboard", period=1.0, channels=[
            {"cell": 0.25, "low": 0.0, "high": 1.0}])
        m0, m1 = sample_realization(spec, 0), sample_realization(spec, 1)
        fam = MinMaxFamily(
            [Piece(AbsShift(0.0, 1.0, 0.0))],
            [Piece(NegatedAbs(0.0, 1.0, 0.0), "additive", 0, scale=10.0)])
        assert expand_p_box(fam, m0) == (-4.0, 4.0)
        assert expand_p_box(fam, m1) == (-8.0, 8.0)
        assert expand_p_box(fam, [m0, m1]) == (-8.0, 8.0)
        assert expand_p_box(fam, [m1, m0]) == (-8.0, 8.0)

    def test_contact_fields_with_auto_box(self, base_family, sin_sq_medium,
                                          x_grid):
        consts = contact_fields(base_family, sin_sq_medium, x_grid,
                                p_box=None, n_p=N_P)
        assert consts["m_bar"][0] == pytest.approx(1.0, abs=1e-12)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def _same_json(a, b):
    # how the manifest writes them: every float by its exact repr
    return json.dumps(a) == json.dumps(b)


class TestBatchMatchesPerX:
    """The batched analysis against the per-x reference in _reference.py,
    bit for bit: fields, witnesses and their order, thin-level-set
    output."""

    def assert_matches(self, cfg, work=None):
        media = [sample_realization(cfg.medium_spec, s) for s in cfg.seeds]
        x_nodes = cfg.x_nodes()
        consts = contact_fields(cfg.family, media, x_nodes, cfg.p_box,
                                cfg.n_p, work)
        m_ref, M_ref, w_ref = contact_fields_per_x(
            cfg.family, media, x_nodes, cfg.p_box, cfg.n_p)
        assert all(map(_same_bits, consts["m_fields"], m_ref))
        assert all(map(_same_bits, consts["M_fields"], M_ref))
        assert _same_json(consts["witnesses"], w_ref)
        for medium, m in zip(media, m_ref):
            out = check_condition_e(cfg.family, medium, x_nodes, m[0],
                                    cfg.p_box, cfg.n_p, work)
            assert _same_json(out, condition_e_per_x(
                cfg.family, medium, x_nodes, m[0], cfg.p_box, cfg.n_p))
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
        consts = self.assert_matches(ExperimentConfig.from_yaml(
            ROOT / "configs" / f"{name}.yaml"))
        if name == "unstable_pair":
            # an x-independent pair: one witness per x-node all the same
            assert len(consts["witnesses"]) == 32

    def test_one_workspace_across_configs(self, tmp_path):
        # as analyze_hypotheses shares one workspace between its pairs,
        # media and stages: 32 x 2049 tables, then 32 x 3073, then the
        # one-row tables of x-independent pairs (on 32 and 16 x-nodes),
        # then 2049 again inside larger buffers; a stale entry or a view
        # the next pair overwrites would break the match
        media = {Path(path).stem: path for path, _, _ in
                 _load_workloads()._media_configs(41, str(tmp_path))}
        paths = [media["checkerboard_sym1_0"], media["checkerboard_rise2_0"],
                 ROOT / "configs" / "unstable_pair.yaml",
                 ROOT / "configs" / "xindep.yaml",
                 media["quasiperiodic_tie2_1"]]
        work, shapes = Workspace(), []
        for path in paths:
            cfg = ExperimentConfig.from_yaml(path)
            self.assert_matches(cfg, work)
            shapes.append((cfg.x_nodes().size, cfg.n_p))
        assert shapes == [(32, 2049), (32, 3073), (32, 2049), (16, 2049),
                          (32, 2049)]

    @pytest.mark.parametrize("name, seeds", [
        ("checkerboard_skew1_0", [7, 7, 9]),    # a drawn medium, twice
        ("quasiperiodic_skew1_0", None)])       # three seeds, one medium
    def test_repeated_media_copy_witnesses_with_their_seeds(
            self, tmp_path, name, seeds):
        path = next(path for path, _, _ in
                    _load_workloads()._media_configs(41, str(tmp_path))
                    if Path(path).stem == name)
        cfg = ExperimentConfig.from_yaml(path)
        cfg.seeds = seeds or cfg.seeds
        assert len(cfg.seeds) == 3
        consts = self.assert_matches(cfg)
        # skew1 is unstable at every node: 32 witnesses per medium, each
        # medium's under its own seed, in medium order
        assert [w["seed"] for w in consts["witnesses"]] == \
            [s for s in cfg.seeds for _ in range(32)]

    def test_small_box_names_the_reference_node_and_seed(self):
        # |p| - 1 + V against 1 - |p| + 2V: the region reaches the box
        # [-1.45, 1.45] where V >= 0.9, which seed 2 never draws and seed
        # 0 first draws in cell 5 of 8, at x = 0.625
        spec = MediumSpec("checkerboard", 1.0, [
            {"cell": 0.125, "low": 0.0, "high": 1.0}])
        fam = MinMaxFamily([Piece(AbsShift(0.0, 1.0, -1.0), "additive", 0)],
                           [Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0,
                                  scale=2.0)])
        media = [sample_realization(spec, s) for s in (2, 2, 0)]
        x_nodes = np.linspace(0.0, 1.0, 33)[:-1]
        box = (-1.45, 1.45)
        with pytest.raises(ValueError) as ref:
            contact_fields_per_x(fam, media, x_nodes, box, N_P)
        with pytest.raises(BoxTooSmallError) as err:
            contact_fields(fam, media, x_nodes, box, N_P)
        assert str(err.value) == str(ref.value) == (
            "level 1 level pair at x=0.625, seed 0: comparison region "
            "touches the gradient box")

    def test_witness_order_is_x_then_level_then_pair(self, sin_sq_medium):
        # level pair 2: |p - 1| against 1 + 2 V - |p + 1|, V = sin^2(pi x),
        # meets only where V > 1/2 and then is unstable (boundary values
        # differ by 2); cross pair 2 against |p| - 1 + V is unstable at
        # every x; level 1 is the stable base pair
        checks = [Piece(AbsShift(0.0, 1.0, -1.0), "additive", 0),
                  Piece(AbsShift(1.0, 1.0, 0.0))]
        hats = [Piece(NegatedAbs(0.0, 1.0, 1.0), "additive", 0),
                Piece(NegatedAbs(-1.0, 1.0, 1.0), "additive", 0, scale=2.0)]
        fam = MinMaxFamily(checks, hats)
        x_nodes = np.linspace(0.0, 1.0, 10)[:-1]
        consts = contact_fields(fam, sin_sq_medium, x_nodes, BOX, N_P)
        _, _, w_ref = contact_fields_per_x(fam, [sin_sq_medium], x_nodes,
                                           BOX, N_P)
        assert _same_json(consts["witnesses"], w_ref)
        order = [(w["x"], w["level"], w["kind"]) for w in consts["witnesses"]]
        inner = [x for x in x_nodes if 0.25 < x < 0.75]
        assert order == [(float(x), 2, kind) for x in x_nodes
                         for kind in ("level pair", "cross pair")
                         if kind == "cross pair" or x in inner]
        assert len(inner) == 4


class TestBatchIsTheOnlyShape:
    def test_piece_evaluations_do_not_grow_with_x_nodes(self, monkeypatch,
                                                        two_level_family,
                                                        two_channel_medium):
        calls = []
        for cls in (AbsShift, NegatedAbs):
            orig = cls.__call__
            monkeypatch.setattr(cls, "__call__",
                                lambda self, p, orig=orig:
                                calls.append(1) or orig(self, p))

        def count(n_x, per_x=False):
            x_nodes = np.linspace(0.0, 1.0, n_x + 1)[:-1]
            args = two_level_family, [two_channel_medium], x_nodes, BOX, N_P
            calls.clear()
            if per_x:
                m = contact_fields_per_x(*args)[0][0][0]
                condition_e_per_x(two_level_family, two_channel_medium,
                                  x_nodes, m, BOX, N_P)
            else:
                m = contact_fields(*args)["m_fields"][0][0]
                check_condition_e(two_level_family, two_channel_medium,
                                  x_nodes, m, BOX, N_P)
            return len(calls)

        assert count(16) == count(64) > 0
        # the counter does see the per-x reference's calls grow
        assert count(64, per_x=True) > count(16, per_x=True) > count(16)


    def test_one_row_per_distinct_medium_state(self, monkeypatch):
        # four cells on 32 x-nodes: each pair is analyzed on a 4-row table
        rows = []

        def spy(V_fn, L_fn, *args):
            rows.append(np.broadcast_shapes(np.shape(V_fn(np.zeros(3))),
                                            np.shape(L_fn(np.zeros(3)))))
            return analyze_pair(V_fn, L_fn, *args)
        monkeypatch.setattr("minmax_hj.pairs.analyze_pair", spy)
        spec = MediumSpec("checkerboard", 1.0, [
            {"cell": 0.25, "low": 0.0, "high": 1.0}])
        consts = contact_fields(make_family([(1.0, 1.0, 0)]),
                                sample_realization(spec, 0),
                                np.linspace(0.0, 1.0, 33)[:-1], BOX, N_P)
        assert rows == [(4, 3)]
        assert np.unique(consts["m_fields"]).size == 4

    def test_piece_evaluations_do_not_grow_with_seeds(self, monkeypatch,
                                                      tmp_path):
        # every seed of a quasiperiodic medium draws the same medium
        path = next(path for path, _, _ in
                    _load_workloads()._media_configs(41, str(tmp_path))
                    if Path(path).stem == "quasiperiodic_tie2_0")
        cfg = ExperimentConfig.from_yaml(path)
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


class TestPeakMemory:
    def test_analysis_holds_no_more_tables(self, tmp_path):
        # one analysis of a three-seed rise2 config (32 x 3073 tables);
        # with fresh intermediate tables in every call its tracemalloc
        # peak was 3.306 such tables: the two piece tables of a pair plus
        # its diff or g table and the masks. The workspace must not add
        # to that: its float table takes the diffs, g and the sign
        # changes in turn.
        path = next(path for path, _, _ in
                    _load_workloads()._media_configs(41, str(tmp_path))
                    if Path(path).stem == "checkerboard_rise2_0")
        cfg = ExperimentConfig.from_yaml(path)
        assert len(cfg.seeds) == 3 and cfg.n_p == 3073
        table = cfg.x_nodes().size * cfg.n_p * 8
        analyze_hypotheses(cfg)   # first-call imports and caches
        tracemalloc.start()
        try:
            analyze_hypotheses(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.306 * table
