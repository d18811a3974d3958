"""Config loading, the experiment runner, and the CLI.

Heavy numerics live in the solver and effective-curve tests; here the
configs are kept small so each command runs in well under a second,
except where a shipped fixture is exercised end to end.
"""

import copy
import errno
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import level_fold, per_seed_hypotheses
from conftest import CountingMedium, run_cli
from minmax_hj import __version__, cli, errors, harness
from minmax_hj.config import U0_CATALOGUE, YAML_LOADER, ExperimentConfig
from minmax_hj.effective import EffectiveCurve
from minmax_hj.errors import (ConfigError, HypothesisError, MinMaxHJError,
                              NonConvergenceError, ProfileShapeError,
                              RunLockError, SchemeParameterError)
from minmax_hj.family import (Hamiltonian, LevelHamiltonian, MinMaxFamily,
                              PieceTable)
from minmax_hj.media import sample_realization
from minmax_hj.profiles import QUASICONCAVE, QUASICONVEX, PiecewiseMonotone
from minmax_hj.harness import (RunLock, analyze_hypotheses, gate_error,
                               run_check, run_effective, run_plotdata,
                               run_sweep_eps)
from minmax_hj.solver import RETRY

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = str(Path(harness.__file__).resolve().parent.parent)

# holds a run directory's lock until killed
HOLD_LOCK = """
import sys, time
from minmax_hj.harness import RunLock
with RunLock(sys.argv[1]):
    print("held", flush=True)
    time.sleep(60)
"""

BASE_PAIR = {
    "checks": [{"profile": {"kind": "abs_shift", "center": 0.0,
                            "slope": 1.0, "offset": -1.0},
                "coupling": "additive", "channel": 0}],
    "hats": [{"profile": {"kind": "negated_abs", "center": 0.0,
                          "slope": 1.0, "offset": 1.0},
              "coupling": "additive", "channel": 0}],
}


def small_config(**over):
    """Fast-running config dict: level-1 base pair on sin^2, n=256."""
    data = {
        "family": copy.deepcopy(BASE_PAIR),
        "medium": {"kind": "periodic", "period": 1.0, "dim": 1,
                   "channels": [{"formula": "sin_sq"}]},
        "solver": {"n": 256, "length": 1.0},
        "p_axis": {"min": -3.0, "max": 3.0, "count": 25},
        "lambda_schedule": [0.16, 0.08, 0.04],
        "eps_schedule": [0.25, 0.125],
        "evolution": {"T": 0.25, "u0": "clipped_abs",
                      "t_samples": [0.125, 0.25]},
        "seeds": [0],
        "output": "runs/test",
    }
    data.update(over)
    return data


def load_fixture(name, **over):
    with open(CONFIG_DIR / name) as fh:
        data = yaml.safe_load(fh)
    data.update(over)
    return ExperimentConfig(data, source=name)


# any value a YAML field can hold
ANY_YAML = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _parts(path):
    return [int(part) if part.isdigit() else part
            for part in re.findall(r"[^.\[\]]+", path)]


def at_path(data, path):
    """The entry of a config dict at a field path like family.checks[0]."""
    for part in _parts(path):
        data = data[part]
    return data


def set_path(data, path, value):
    *parents, key = _parts(path)
    for part in parents:
        data = data[part]
    data[key] = value


BASE_CASE = yaml.safe_load((CONFIG_DIR / "base_case.yaml").read_text())

# every top-level section and every scalar field of the flat sections
FUZZED_FIELDS = sorted(BASE_CASE) + [
    "solver.n", "solver.length", "solver.theta", "p_axis.min",
    "p_axis.max", "p_axis.count", "evolution.T", "evolution.u0",
    "evolution.t_samples", "pairs"]


# base_case variants whose pieces, profiles and channels the second fuzz
# sets field by field: (changes to base_case, fields fuzzed)
PIECEWISE_CHECK = {
    "profile": {"kind": "piecewise_monotone",
                "breaks": [-2.0, 0.0, 0.5, 2.0],
                "values": [1.0, -1.0, -1.0, 0.5], "direction": "valley"},
    "coupling": "additive", "channel": 0}
NESTED_FIELDS = [
    ({}, [f"family.{role}[0]{field}" for role in ("checks", "hats")
          for field in ("", ".profile", ".coupling", ".channel", ".scale",
                        ".profile.kind", ".profile.center",
                        ".profile.slope", ".profile.offset")]
     + ["family.checks", "family.hats", "medium.kind", "medium.period",
        "medium.channels", "medium.channels[0]",
        "medium.channels[0].formula", "medium.channels[0].value",
        "medium.channels[0].amplitude", "medium.channels[0].offset",
        "medium.channels[0].shift"]),
    ({"family.checks[0]": PIECEWISE_CHECK},
     ["family.checks[0].profile.kind", "family.checks[0].profile.breaks",
      "family.checks[0].profile.values",
      "family.checks[0].profile.direction"]),
    ({"medium.channels[0]": {"cell": 0.25, "low": 0.0, "high": 1.0},
      "medium.kind": "checkerboard"},
     ["medium.channels[0].cell", "medium.channels[0].low",
      "medium.channels[0].high"]),
    ({"medium.channels[0]": {"freqs": [1.0, 2.0], "amps": [0.3, 0.2],
                             "phases": [0.0, 1.0], "offset": 0.5},
      "medium.kind": "quasiperiodic"},
     ["medium.channels[0].freqs", "medium.channels[0].amps",
      "medium.channels[0].phases", "medium.channels[0].offset"]),
]


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def assert_load_invariants(cfg):
    """The rules on its input that a loaded config holds by its load
    alone, as no constructor or solver of the package checks them."""
    fam = cfg.family
    assert len(fam.checks) == len(fam.hats) >= 1
    for pieces, tag in ((fam.checks, QUASICONVEX), (fam.hats, QUASICONCAVE)):
        for pc in pieces:
            assert pc.tag == tag
            assert pc.coupling in (None, "additive", "amplitude")
            assert pc.coupling is None or pc.channel is not None
            assert pc.coupling != "amplitude" or pc.scale > 0
            phi = pc.profile
            if isinstance(phi, PiecewiseMonotone):
                assert phi.direction in ("valley", "hill")
                assert phi.breaks.ndim == 1 and phi.breaks.size >= 2
                assert phi.values.shape == phi.breaks.shape
                assert np.all(np.diff(phi.breaks) > 0)
            else:
                assert phi.slope > 0
    assert cfg.medium_spec.kind in ("periodic", "checkerboard",
                                    "quasiperiodic")
    assert cfg.solver_n >= 16
    lams = cfg.lambda_schedule
    assert len(lams) >= 3 and min(lams) > 0
    assert all(b < a for a, b in zip(lams, lams[1:]))
    h = cfg.solver_length / cfg.solver_n
    assert all(eps > 0 and eps >= 2 * h for eps in cfg.eps_schedule)
    assert cfg.p_axis.ndim == 1 and cfg.p_axis.size >= 2
    assert np.all(np.diff(cfg.p_axis) > 0)
    assert all(0 < t <= cfg.T for t in cfg.t_samples)


class TestConfigValidation:
    def test_good_config_loads(self):
        cfg = ExperimentConfig(small_config())
        assert cfg.p_axis[0] == -3.0 and cfg.p_axis[-1] == 3.0
        assert len(cfg.p_axis) == 25
        assert cfg.lambda_schedule == [0.16, 0.08, 0.04]
        assert cfg.theta is None
        assert cfg.family.ell == 1

    def test_missing_family(self):
        data = small_config()
        del data["family"]
        with pytest.raises(ConfigError, match="family"):
            ExperimentConfig(data)

    def test_missing_solver_n(self):
        data = small_config(solver={"length": 1.0})
        with pytest.raises(ConfigError, match="solver"):
            ExperimentConfig(data)

    def test_top_level_must_be_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            ExperimentConfig([1, 2, 3])

    def test_increasing_lambda_schedule_rejected(self):
        data = small_config(lambda_schedule=[0.04, 0.08, 0.16])
        with pytest.raises(ConfigError, match="strictly decreasing"):
            ExperimentConfig(data)

    def test_short_lambda_schedule_rejected(self):
        data = small_config(lambda_schedule=[0.16, 0.08])
        with pytest.raises(ConfigError, match=">= 3"):
            ExperimentConfig(data)

    def test_under_resolved_eps_rejected(self):
        data = small_config(eps_schedule=[0.25, 1.0 / 512])
        with pytest.raises(ConfigError, match="under-resolved"):
            ExperimentConfig(data)

    def test_unknown_u0_rejected(self):
        data = small_config()
        data["evolution"]["u0"] = "sawtooth"
        with pytest.raises(ConfigError, match="catalogue"):
            ExperimentConfig(data)

    def test_t_samples_beyond_horizon_rejected(self):
        data = small_config()
        data["evolution"]["t_samples"] = [0.125, 0.5]
        with pytest.raises(ConfigError, match=r"\(0, T\]"):
            ExperimentConfig(data)

    def test_channel_out_of_range(self):
        data = small_config()
        data["family"]["checks"][0]["channel"] = 1
        with pytest.raises(ConfigError, match="channel 1"):
            ExperimentConfig(data)

    def test_bad_p_axis(self):
        data = small_config(p_axis={"min": 3.0, "max": -3.0, "count": 25})
        with pytest.raises(ConfigError, match="p_axis"):
            ExperimentConfig(data)

    def test_empty_seed_list_rejected(self):
        data = small_config(seeds=[])
        with pytest.raises(ConfigError, match="seeds"):
            ExperimentConfig(data)

    def test_broken_piece_reported_under_family(self):
        data = small_config()
        data["family"]["hats"][0]["profile"]["kind"] = "mystery"
        with pytest.raises(ConfigError, match="family"):
            ExperimentConfig(data)

    def test_yaml_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("family:\n  checks: [\n")
        with pytest.raises(ConfigError, match="line"):
            ExperimentConfig.from_yaml(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_yaml(str(tmp_path / "nope.yaml"))

    @pytest.mark.parametrize("name", sorted(p.name for p in
                                            CONFIG_DIR.iterdir()))
    def test_loader_parses_like_safe_loader(self, name):
        # repr, not ==, so that 1 and 1.0 or a reordered mapping differ
        text = (CONFIG_DIR / name).read_text()
        assert repr(yaml.load(text, Loader=YAML_LOADER)) \
            == repr(yaml.load(text, Loader=yaml.SafeLoader))

    def test_u0_catalogue_values(self):
        cfg = ExperimentConfig(small_config(solver={"n": 256, "length": 4.0}))
        x = np.array([0.0, 0.5, 2.5, 3.75])
        # distance to 0 on the circle of circumference 4, clipped at 1
        np.testing.assert_allclose(cfg.u0_values(x), [0.0, 0.5, 1.0, 0.25])
        assert set(U0_CATALOGUE) == {"clipped_abs", "cosine", "constant",
                                     "plateau_bump"}

    def test_x_nodes_cover_one_period(self):
        # the hypotheses read the exact oracle's medium table
        cfg = ExperimentConfig(small_config())
        medium = sample_realization(cfg.medium_spec, 0)
        nodes = PieceTable(cfg.family, [medium]).nodes
        assert nodes.shape == (4096,)
        assert nodes[0] == 0.0 and nodes[-1] < cfg.medium_spec.period

    def test_pairs_section_is_read_and_ignored(self, capsys):
        # configs written for the gradient-grid scan still load, with a
        # note per key; no value is read, and a typo is still refused
        data = small_config(pairs={"x_nodes": 2, "p_box": None, "n_p": "x"})
        ExperimentConfig(data)
        assert capsys.readouterr().err.splitlines() == [
            f"config note: pairs.{key} is ignored; the contact analysis is "
            f"exact" for key in ("x_nodes", "p_box", "n_p")]
        ExperimentConfig(small_config())
        assert capsys.readouterr().err == ""
        data["pairs"]["x_node"] = 32
        with pytest.raises(ConfigError, match=re.escape(
                "pairs.x_node: unknown key")):
            ExperimentConfig(data)

    def test_length_must_hold_whole_periods(self):
        data = small_config(solver={"n": 256, "length": 1.5})
        with pytest.raises(ConfigError, match=r"solver\.length: .*whole "
                                              r"multiple of medium\.period"):
            ExperimentConfig(data)
        data["solver"]["length"] = 2.0
        ExperimentConfig(data)

    def test_eps_must_fit_the_domain(self):
        # 1 / (0.3 * 1) is not whole: the rescaled medium has a seam
        data = small_config(eps_schedule=[0.3, 0.125])
        with pytest.raises(ConfigError, match=r"eps_schedule: eps=0\.3 "):
            ExperimentConfig(data)

    @pytest.mark.parametrize("section,key", [
        (None, "threads"), ("solver", "solver_typo"), ("p_axis", "step"),
        ("evolution", "dt"), ("pairs", "x_node"), ("family", "orientation"),
        ("family", "normalized"), ("family.checks[0]", "scal"),
        ("family.hats[0]", "extra_const"), ("medium", "offset"),
        ("medium.channels[0]", "amplitud")])
    def test_unknown_keys_rejected(self, section, key):
        data = small_config(pairs={})   # an optional section, stated empty
        (data if section is None else at_path(data, section))[key] = 4
        path = key if section is None else f"{section}.{key}"
        with pytest.raises(ConfigError,
                           match=re.escape(f"{path}: unknown key")):
            ExperimentConfig(data)

    @pytest.mark.parametrize("kind,channel,key", [
        ("periodic", {"formula": "sin_sq", "cell": 0.5}, "cell"),
        ("checkerboard",
         {"cell": 0.25, "low": 0.0, "high": 1.0, "formula": "cos"},
         "formula"),
        ("quasiperiodic", {"freqs": [1.0], "amps": [0.3], "amplitude": 1.0},
         "amplitude")])
    def test_channel_keys_depend_on_the_kind(self, kind, channel, key):
        data = small_config()
        data["medium"] = {"kind": kind, "period": 1.0,
                          "channels": [channel]}
        with pytest.raises(ConfigError, match=re.escape(
                f"medium.channels[0].{key}: unknown key")):
            ExperimentConfig(data)

    @pytest.mark.parametrize("path,value", [
        ("medium", 5), ("family", 5), ("solver", 3), ("p_axis", 3),
        ("pairs", 3), ("evolution", 2), ("seeds", "abc"), ("seeds", 5),
        ("lambda_schedule", 5), ("solver.n", "x"), ("p_axis.count", "x"),
        ("pairs", None), ("pairs", "x"), ("evolution.T", "x"),
        ("medium.period", "x"), ("medium.channels", 5),
        ("medium.channels[0].amplitude", "x"), ("family.hats[0].scale", "x"),
        ("family.checks[0].channel", "a"), ("seeds", [-1]),
        ("pairs", [4.0, -4.0]), ("solver.n", 256.5)])
    def test_wrong_typed_values_name_the_field(self, path, value):
        data = small_config()
        set_path(data, path, value)
        with pytest.raises(ConfigError,
                           match=r"^<config>: " + re.escape(f"{path}: ")):
            ExperimentConfig(data)

    def test_quasiperiodic_phases_must_match_freqs(self):
        data = small_config()
        data["medium"] = {"kind": "quasiperiodic", "period": 1.0,
                          "channels": [{"freqs": [1.0, 2.0],
                                        "amps": [0.3, 0.2],
                                        "phases": [0.5]}]}
        at = "medium.channels[0]"
        with pytest.raises(ConfigError, match=re.escape(
                f"{at}: need {at}.freqs, {at}.amps and {at}.phases of one "
                f"nonzero length")):
            ExperimentConfig(data)

    @pytest.mark.parametrize("cell", [0.3, 5e-324, 2.0 ** -30])
    def test_checkerboard_cell_must_divide_the_period(self, cell):
        # 5e-324 gives infinitely many cells, 2^-30 an 8 GB table
        data = small_config()
        data["medium"] = {"kind": "checkerboard", "period": 1.0,
                          "channels": [{"cell": cell, "low": 0.0,
                                        "high": 1.0}]}
        with pytest.raises(ConfigError, match=re.escape(
                f"medium.channels[0].cell: {cell:g} does not divide "
                f"medium.period 1 into at most 1000000 cells")):
            ExperimentConfig(data)

    def test_negative_piece_channel_rejected(self):
        data = small_config()
        data["family"]["checks"][0]["channel"] = -1
        with pytest.raises(ConfigError, match="channel -1 not in medium"):
            ExperimentConfig(data)

    @pytest.mark.parametrize("theta", [[1.0, 1.0], -1.0, "big"])
    def test_theta_must_be_a_positive_number(self, theta):
        data = small_config()
        data["solver"]["theta"] = theta
        with pytest.raises(ConfigError, match="solver.theta"):
            ExperimentConfig(data)

    def test_theta_at_the_lipschitz_bound_loads(self):
        # the bound of an amplitude piece comes from its channel bounds:
        # slope 1 times scale 2 times 1/4 + cos^2 / 2 <= 3/4 is 3/2, and
        # the hat's slope 3 is the larger; at scale 8 the check's 6 is
        data = small_config()
        data["medium"]["channels"].append(
            {"formula": "cos_sq", "amplitude": 0.5, "offset": 0.25})
        data["family"]["checks"][0].update(coupling="amplitude", channel=1,
                                           scale=2.0)
        data["family"]["hats"][0]["profile"]["slope"] = 3.0
        data["solver"]["theta"] = 3.0
        assert ExperimentConfig(data).theta == 3.0
        data["family"]["checks"][0]["scale"] = 8.0
        with pytest.raises(ConfigError, match=re.escape(
                "solver.theta: 3 is below 6, the family's Lipschitz bound")):
            ExperimentConfig(data)

    def test_quasiperiodic_frequency_must_be_a_number(self):
        data = small_config()
        data["medium"] = {"kind": "quasiperiodic", "period": 1.0,
                          "channels": [{"freqs": [[1.0, 2.0]],
                                        "amps": [0.3]}]}
        with pytest.raises(ConfigError, match=r"medium\.channels\[0\]\.freqs: "
                                              r"\[\[1\.0, 2\.0\]\] is not a list "
                                              r"of finite numbers"):
            ExperimentConfig(data)

    @settings(max_examples=80, deadline=None, database=None)
    @given(dim=st.one_of(st.just(1), ANY_YAML), center=ANY_YAML,
           role=st.sampled_from(["checks", "hats"]))
    def test_fuzzed_dim_and_center_load_or_name_the_field(self, dim, center,
                                                          role):
        data = yaml.safe_load((CONFIG_DIR / "base_case.yaml").read_text())
        data["medium"]["dim"] = dim
        data["family"][role][0]["profile"]["center"] = center
        try:
            cfg = ExperimentConfig(data)
        except ConfigError as err:
            field = "medium.dim" if dim != 1 \
                else f"family.{role}[0].profile.center"
            assert field in str(err)
        else:
            assert_load_invariants(cfg)

    @settings(max_examples=300, deadline=None, database=None)
    @given(path=st.sampled_from(FUZZED_FIELDS), value=ANY_YAML)
    def test_fuzzed_fields_load_or_name_the_field(self, path, value):
        data = copy.deepcopy(BASE_CASE)
        set_path(data, path, value)
        try:
            cfg = ExperimentConfig(data)
        except ConfigError as err:
            assert path in str(err)
        else:
            assert_load_invariants(cfg)

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_fuzzed_nested_fields_load_or_name_the_field(self, data):
        changes, fields = data.draw(st.sampled_from(NESTED_FIELDS))
        path = data.draw(st.sampled_from(fields))
        value = data.draw(ANY_YAML)
        config = copy.deepcopy(BASE_CASE)
        for at, new in changes.items():
            set_path(config, at, copy.deepcopy(new))
        # each variant loads as it is
        assert_load_invariants(ExperimentConfig(config))
        set_path(config, path, value)
        try:
            cfg = ExperimentConfig(config)
        except ConfigError as err:
            assert path in str(err)
        else:
            assert_load_invariants(cfg)

    @pytest.mark.parametrize("kind,key", [
        ("abs_shift", "slop"), ("abs_shift", "breaks"),
        ("negated_abs", "direction"), ("piecewise_monotone", "center")])
    def test_profile_keys_depend_on_the_kind(self, kind, key):
        data = small_config()
        profile = (PIECEWISE_CHECK["profile"] if kind == "piecewise_monotone"
                   else BASE_PAIR["checks"][0]["profile"])
        role = "hats" if kind == "negated_abs" else "checks"
        data["family"][role][0]["profile"] = dict(profile, kind=kind)
        data["family"][role][0]["profile"][key] = 1
        at = f"family.{role}[0].profile"
        with pytest.raises(ConfigError, match=re.escape(
                f"{at}.{key}: unknown key for {at}.kind {kind!r}")):
            ExperimentConfig(data)

    @pytest.mark.parametrize("field,value,message", [
        ("offset", "-1.0", "'-1.0' is not a finite number"),
        ("center", "0", "'0' is not a finite number"),
        ("slope", 0.0, "0.0 is not positive"),
        ("kind", "negated_abs", "makes a quasiconcave profile, but "
                                "family.checks must be quasiconvex")])
    def test_profile_fields_are_read_typed(self, field, value, message):
        # the profile constructors would take "-1.0" and "0" as numbers
        data = small_config()
        data["family"]["checks"][0]["profile"][field] = value
        with pytest.raises(ConfigError, match=re.escape(
                f"family.checks[0].profile.{field}: {message}")):
            ExperimentConfig(data)

    def test_missing_profile_field_is_named(self):
        data = small_config()
        del data["family"]["hats"][0]["profile"]["slope"]
        with pytest.raises(ConfigError, match=re.escape(
                "family.hats[0].profile.slope: missing required field")):
            ExperimentConfig(data)

    def test_piecewise_values_must_match_the_direction(self):
        data = small_config()
        data["family"]["checks"][0] = copy.deepcopy(PIECEWISE_CHECK)
        ExperimentConfig(data)
        data["family"]["checks"][0]["profile"]["direction"] = "hill"
        at = "family.checks[0].profile"
        with pytest.raises(ConfigError, match=re.escape(
                f"{at}.values: values do not form a hill")) as err:
            ExperimentConfig(data)
        assert f"{at}.direction" in str(err.value)

    @pytest.mark.parametrize("field,value,message", [
        ("coupling", "times", "unknown coupling 'times'"),
        ("channel", None, "missing, family.hats[0].coupling 'additive' "
                          "needs a medium channel"),
        ("channel", 3, "channel 3 not in medium (has 1)")])
    def test_piece_fields_are_named(self, field, value, message):
        data = small_config()
        data["family"]["hats"][0][field] = value
        with pytest.raises(ConfigError, match=re.escape(
                f"family.hats[0].{field}: {message}")):
            ExperimentConfig(data)

    def test_shipped_fixtures_load(self):
        for name in ("base_case.yaml", "ell2_strict.yaml",
                     "unstable_pair.yaml", "monotonicity_violation.yaml",
                     "xindep.yaml"):
            cfg = ExperimentConfig.from_yaml(str(CONFIG_DIR / name))
            assert cfg.family.ell in (1, 2)
            assert_load_invariants(cfg)


class TestHypothesisStage:
    def test_base_pair_all_verdicts_pass(self):
        cfg = ExperimentConfig(small_config())
        analysis = analyze_hypotheses(cfg)
        assert all(analysis["verdicts"].values())
        assert gate_error(analysis) is None
        np.testing.assert_allclose(analysis["constants"]["m_bar"], [1.0])
        np.testing.assert_allclose(analysis["constants"]["M_lower"], [1.0])

    def test_unstable_fixture_fails_stability_only(self):
        cfg = load_fixture("unstable_pair.yaml")
        analysis = analyze_hypotheses(cfg)
        v = analysis["verdicts"]
        assert not v["stable_pairs"]
        assert v["ordering"] and v["contact_monotonicity"]
        assert gate_error(analysis).witness[0]["level"] == 1
        w = analysis["witnesses"]["stable_pairs"][0]
        assert w["level"] == 1 and w["variation"] == 2.0
        assert w["boundary_values_V"] == [0.5, 2.5]

    def test_monotonicity_fixture_fails_upper_chain(self):
        cfg = load_fixture("monotonicity_violation.yaml")
        analysis = analyze_hypotheses(cfg)
        v = analysis["verdicts"]
        assert v["stable_pairs"] and v["ordering"]
        assert not v["contact_monotonicity"]
        fail = analysis["witnesses"]["contact_monotonicity"][0]
        assert fail["chain"] == "upper" and fail["index"] == 1
        assert fail["values"] == [1.0, 2.5]

    def test_two_level_fixture_strictly_monotone(self):
        cfg = load_fixture("ell2_strict.yaml")
        analysis = analyze_hypotheses(cfg)
        assert all(analysis["verdicts"].values())
        np.testing.assert_allclose(analysis["constants"]["m_bar"],
                                   [1.0, 0.5])
        np.testing.assert_allclose(analysis["constants"]["M_lower"],
                                   [1.0, 1.25])

    @pytest.mark.parametrize("name", ["xindep.yaml", "unstable_pair.yaml"])
    def test_medium_free_family_is_one_state(self, name):
        # no piece couples to the medium, so its channels split no state
        consts = analyze_hypotheses(load_fixture(name))["constants"]
        assert consts["n_states"] == [1]


class TestRunCheck:
    def test_writes_manifest_only(self, tmp_path):
        cfg = ExperimentConfig(small_config(output=str(tmp_path / "run")))
        manifest = run_check(cfg)
        assert manifest["command"] == "check"
        assert sorted(os.listdir(tmp_path / "run")) == ["manifest.json"]
        on_disk = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert on_disk["verdicts"] == manifest["verdicts"]
        assert on_disk["tool_version"] == __version__
        assert on_disk["files"] == {}

    def test_lock_released_after_run(self, tmp_path):
        cfg = ExperimentConfig(small_config(output=str(tmp_path / "run")))
        run_check(cfg)
        run_check(cfg)  # would raise RunLockError if the lock leaked

    def test_lock_contention(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        with RunLock(str(out)):
            cfg = ExperimentConfig(small_config(output=str(out)))
            with pytest.raises(RunLockError):
                run_check(cfg)
        run_check(cfg)

    def test_every_command_writes_one_hypothesis_block(self, tmp_path):
        blocks = []
        for name, run in [("check", run_check), ("effective", run_effective),
                          ("sweep", run_sweep_eps)]:
            run(load_fixture("base_case.yaml", output=str(tmp_path / name)))
            manifest = json.loads(
                (tmp_path / name / "manifest.json").read_text())
            blocks.append({k: manifest[k] for k in
                           ("verdicts", "witnesses", "contact_constants")})
        assert blocks[0] == blocks[1] == blocks[2]
        assert blocks[0]["contact_constants"]["m_bar"] == [1.0]

    @pytest.mark.parametrize("recreated", [False, True])
    def test_lock_on_an_unlinked_file_is_refused(self, tmp_path, monkeypatch,
                                                  recreated):
        # between our open and our flock, the owner finished and unlinked
        # the file we opened (and, maybe, the next run made a new one)
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text("")
        flock = harness.fcntl.flock

        def flock_after_release(fd, op):
            os.unlink(out / ".lock")
            if recreated:
                (out / ".lock").write_text("")
            return flock(fd, op)
        monkeypatch.setattr(harness.fcntl, "flock", flock_after_release)
        with pytest.raises(RunLockError, match="locked"):
            with RunLock(str(out)):
                pass

    def test_lock_file_removed_mid_run(self, tmp_path):
        # the run still finishes whole, and the lock's descriptor is
        # closed all the same
        out = tmp_path / "run"
        cfg = ExperimentConfig(small_config(output=str(out)))

        def stages(analysis, out_dir, timings):
            os.unlink(os.path.join(out_dir, ".lock"))
            return {"files": []}
        harness._run(cfg, None, "check", stages)
        assert sorted(os.listdir(out)) == ["manifest.json"]
        with RunLock(str(out)) as lock:
            os.unlink(lock.path)
        with pytest.raises(OSError) as err:
            os.fstat(lock.fd)
        assert err.value.errno == errno.EBADF


class TestRunEffective:
    def test_curve_csv_roundtrip(self, tmp_path):
        path = tmp_path / "curve.csv"
        p = np.linspace(-3.0, 3.0, 33)
        curve = EffectiveCurve(p, np.abs(p), np.full(33, 1e-3), "oracle")
        harness._curve_csv(str(path), curve)
        lines = path.read_text().splitlines()
        assert lines[:2] == ["p,value,error_bar,provenance",
                             "-3,3,0.001,oracle"]
        data = np.genfromtxt(path, delimiter=",", skip_header=1,
                             usecols=(0, 1, 2))
        assert np.array_equal(data[:, 0], p)
        assert np.array_equal(data[:, 1], np.abs(p))

    def test_field_free_family_is_exact(self, tmp_path):
        cfg = load_fixture("xindep.yaml", output=str(tmp_path / "run"))
        manifest = run_effective(cfg)
        assert manifest["max_abs_err"] == 0.0
        assert manifest["unreliable_p"] == []
        header = (tmp_path / "run" / "compare.csv").read_text().splitlines()[0]
        assert header == "p,numeric,formula,abs_err"
        for name in ("numeric.csv", "formula.csv", "compare.csv"):
            assert manifest["files"][name] == sha256(tmp_path / "run" / name)

    def test_result_files_deterministic(self, tmp_path):
        first = load_fixture("xindep.yaml", output=str(tmp_path / "a"))
        second = load_fixture("xindep.yaml", output=str(tmp_path / "b"))
        m1, m2 = run_effective(first), run_effective(second)
        assert m1["files"] == m2["files"]

    def test_solver_stats_count_every_solve(self, tmp_path):
        # 33 gradients x 4 discount rates, all on the Newton path
        cfg = load_fixture("base_case.yaml", output=str(tmp_path / "run"))
        stats = run_effective(cfg)["solver_stats"]
        assert stats["solves"] == {"newton": 132}
        assert stats["fallbacks"] == []
        # the piece curves are exact; only the family curve is numeric
        rows = stats["per_p"]
        assert [r["p"] for r in rows] == cfg.p_axis.tolist()
        assert all(r["newton_iterations"] > 0 for r in rows)
        assert all(0.0 <= r["max_residual"] <= 1e-8 * 3.0 for r in rows)
        assert all(r["alpha"] is None or 0.4 <= r["alpha"] <= 1.1
                   for r in rows)
        # most base-case gradients fit best at an end of the window
        assert all(r["alpha_at_edge"] == (r["alpha"] in (0.4, 1.1))
                   for r in rows)
        assert sum(r["alpha_at_edge"] for r in rows) == 20

    def test_two_level_fixture_needs_no_relaxation(self, tmp_path):
        # warm starts that decline are retried from the nested start
        cfg = load_fixture("ell2_strict.yaml", output=str(tmp_path / "run"))
        stats = run_effective(cfg)["solver_stats"]
        assert stats["fallbacks"] == []
        assert sum(stats["solves"].values()) == 132
        assert set(stats["solves"]) <= {"newton", RETRY}

    @pytest.mark.parametrize("name", ["base_case.yaml", "ell2_strict.yaml"])
    def test_results_do_not_depend_on_the_periods_of_the_grid(self, name,
                                                              tmp_path):
        # the discounted solve runs on one medium period of the grid's
        # spacing, so 4 and 16 periods write the same results, retries
        # included
        runs = []
        for n, length in ((4096, 4.0), (16384, 16.0)):
            out = tmp_path / str(n)
            with open(CONFIG_DIR / name) as fh:
                data = yaml.safe_load(fh)
            data["solver"].update(n=n, length=length)
            data["output"] = str(out)
            run_effective(ExperimentConfig(data, source=name))
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["timings"], manifest["config"]
            runs.append((manifest, {f: (out / f).read_bytes() for f in (
                "numeric.csv", "formula.csv", "compare.csv")}))
        assert runs[0] == runs[1]
        if name == "ell2_strict.yaml":
            assert runs[0][0]["solver_stats"]["solves"][RETRY] == 2

    def test_numeric_curve_is_checked_for_continuity(self, monkeypatch):
        # a jump of 1 where the Lipschitz bound 1 allows 0.25 + 2e-2
        cfg = ExperimentConfig(small_config())

        def jumpy(hamiltonian, p, medium, lams, grid, theta):
            return {"value": np.abs(p) + (np.arange(len(p)) == 12),
                    "error_bar": np.zeros(len(p)),
                    "reliable": np.ones(len(p), dtype=bool)}
        monkeypatch.setattr(harness, "estimate_effective", jumpy)
        ham = LevelHamiltonian(cfg.family)
        medium = sample_realization(cfg.medium_spec, 0)
        assert ham.lipschitz(medium) == 1.0
        with pytest.raises(ProfileShapeError,
                           match="exceeds the continuity bound"):
            harness._numeric_curve(ham, cfg, medium)

    def test_failed_manifest_write_leaves_no_manifest(self, tmp_path,
                                                      monkeypatch):
        def broken(*args, **kwargs):
            raise OSError("disk full")
        monkeypatch.setattr(harness.json, "dumps", broken)
        cfg = load_fixture("xindep.yaml", output=str(tmp_path / "run"))
        with pytest.raises(OSError, match="disk full"):
            run_effective(cfg)
        left = sorted(p.name for p in (tmp_path / "run").iterdir())
        assert left == ["compare.csv", "formula.csv", "numeric.csv"]

    def test_manifest_goes_once_the_lock_is_held(self, tmp_path,
                                                   monkeypatch):
        out = tmp_path / "run"
        config = str(CONFIG_DIR / "xindep.yaml")
        run_effective(load_fixture("xindep.yaml", output=str(out)))

        def snapshot():
            return {p.name: (p.read_bytes(), p.stat().st_ino,
                             p.stat().st_mtime_ns) for p in out.iterdir()}
        # a contender refused by the owner's lock touches nothing
        before = snapshot()
        with RunLock(str(out)):
            held = snapshot()
            for command in ("check", "effective", "sweep-eps"):
                res = run_cli([command, "--config", config, "--out",
                               str(out)])
                assert res.exit_code == 4 and "locked" in res.stderr
            assert snapshot() == held
        assert snapshot() == before

        # a rerun that rewrites all three CSVs on a 9-point axis and then
        # fails leaves no manifest, whose checksums would no longer hold
        def broken(*args, **kwargs):
            raise OSError("disk full")
        monkeypatch.setattr(harness.json, "dumps", broken)
        cfg = load_fixture("xindep.yaml", output=str(out),
                           p_axis={"min": -3.0, "max": 3.0, "count": 9})
        with pytest.raises(OSError, match="disk full"):
            run_effective(cfg)
        left = sorted(p.name for p in out.iterdir())
        assert left == ["compare.csv", "formula.csv", "numeric.csv"]
        assert len((out / "numeric.csv").read_text().splitlines()) == 10

    def test_two_level_compare_has_half_step_columns(self, tmp_path):
        data = small_config(output=str(tmp_path / "run"))
        fam = yaml.safe_load((CONFIG_DIR / "ell2_strict.yaml").read_text())
        data["family"] = fam["family"]
        data["medium"] = fam["medium"]
        # window wide enough to reach the coercive rise past the outer dip
        data["p_axis"] = {"min": -4.0, "max": 4.0, "count": 17}
        cfg = ExperimentConfig(data)
        manifest = run_effective(cfg)
        header = (tmp_path / "run" / "compare.csv").read_text().splitlines()[0]
        assert header == "p,numeric,formula,abs_err,level_1,level_1_5"
        assert manifest["max_abs_err"] < 0.1

    def test_gate_blocks_unstable_family(self, tmp_path):
        cfg = load_fixture("unstable_pair.yaml", output=str(tmp_path / "run"))
        with pytest.raises(HypothesisError):
            run_effective(cfg)
        assert not (tmp_path / "run" / ".lock").exists()

    def test_force_overrides_gate(self, tmp_path):
        cfg = load_fixture("unstable_pair.yaml", output=str(tmp_path / "run"))
        manifest = run_effective(cfg, force=True)
        assert not manifest["verdicts"]["stable_pairs"]
        assert manifest["witnesses"]["stable_pairs"]
        assert (tmp_path / "run" / "compare.csv").exists()

    def test_gate_blocks_broken_chain(self, tmp_path):
        cfg = load_fixture("monotonicity_violation.yaml",
                           output=str(tmp_path / "run"))
        with pytest.raises(HypothesisError) as err:
            run_effective(cfg)
        assert err.value.witness[0]["chain"] == "upper"
        assert err.value.witness[0]["index"] == 1


class TestRunSweep:
    def test_field_free_family_sweep_is_exact(self, tmp_path):
        cfg = load_fixture("xindep.yaml", output=str(tmp_path / "run"))
        manifest = run_sweep_eps(cfg)
        assert all(err <= 1e-10 for err in manifest["errors"])
        assert manifest["nonincreasing"]
        header, first = (tmp_path / "run"
                         / "err_vs_eps.csv").read_text().splitlines()[:2]
        assert header == "eps,err,ratio_to_prev"
        assert first.split(",")[2] == "nan"

    def test_ratio_to_zero_error_is_null_in_valid_json(self, tmp_path):
        # every error of the field-free sweep is 0, so no ratio is
        # defined; the manifest must still be strict JSON
        def reject(name):
            raise ValueError(f"{name} is not JSON")
        cfg = load_fixture("xindep.yaml", output=str(tmp_path / "run"))
        run_sweep_eps(cfg)
        text = (tmp_path / "run" / "manifest.json").read_text()
        manifest = json.loads(text, parse_constant=reject)
        assert manifest["errors"] == [0.0, 0.0, 0.0]
        assert manifest["ratios"] == [None, None]
        rows = (tmp_path / "run" / "err_vs_eps.csv").read_text().splitlines()
        assert [row.split(",")[2] for row in rows[1:]] == ["nan"] * 3

    def test_base_pair_errors_shrink(self, tmp_path):
        cfg = ExperimentConfig(small_config(output=str(tmp_path / "run")))
        manifest = run_sweep_eps(cfg)
        assert manifest["strictly_decreasing"]
        assert len(manifest["errors"]) == 2
        assert manifest["ratios"][0] < 0.8

    def test_manifest_records_march_stats(self, tmp_path):
        cfg = ExperimentConfig(small_config(output=str(tmp_path / "run")))
        manifest = run_sweep_eps(cfg)
        stats = manifest["march_stats"]
        # theta = 1 (the pieces' slope) on h = 1/256 to T = 0.25 at CFL 0.9
        assert (stats["n_steps"], stats["theta"]) == (72, 1.0)
        assert stats["dt"] == 0.25 / 72
        assert [r["eps"] for r in stats["per_eps"]] == [0.25, 0.125]
        assert [r["err"] for r in stats["per_eps"]] == manifest["errors"]
        # the first update peaks on top of the tent u0, at x = 1/2: there
        # H(0, x/eps) = 1 (V(x/eps) = 0 for both eps) plus the dissipation
        # theta/2 times the slope jump 2
        assert [r["k_bound"] for r in stats["per_eps"]] == [2.0, 2.0]
        timings = manifest["timings"]
        assert "evolution" in timings and "homogenized" in timings
        assert not any(k.startswith("eps_") for k in timings)

    def test_level_share_of_a_sweep_below_level_two(self, tmp_path,
                                                    monkeypatch):
        # every u0 slope of ell2_strict is at most pi/2, and level 2 acts
        # only for |p| >= 2: level 1 sets the value at every node. Its
        # channels 0 and 1 are read once each by the piece table, the
        # march's level binding and the level shares
        made = []

        def counting(spec, seed):
            made.append(CountingMedium(sample_realization(spec, seed)))
            return made[-1]
        monkeypatch.setattr(harness, "sample_realization", counting)
        cfg = load_fixture("ell2_strict.yaml", output=str(tmp_path / "run"))
        manifest = run_sweep_eps(cfg)
        assert [r["level_share"] for r in
                manifest["march_stats"]["per_eps"]] == [[1.0, 0.0]] * 3
        assert [m.calls for m in made] == [{0: 3, 1: 3}]

    def test_level_share_of_a_sweep_that_reaches_level_two(self, tmp_path):
        # the same family on one period: the cosine's slopes reach 2 pi
        data = yaml.safe_load((CONFIG_DIR / "ell2_strict.yaml").read_text())
        data.update(small_config(output=str(tmp_path / "run")),
                    family=data["family"], medium=data["medium"],
                    p_axis={"min": -8.0, "max": 8.0, "count": 65})
        data["evolution"]["u0"] = "cosine"
        manifest = run_sweep_eps(ExperimentConfig(data))
        for row in manifest["march_stats"]["per_eps"]:
            share = row["level_share"]
            assert len(share) == 2 and share[1] > 0.0
            assert abs(sum(share) - 1.0) <= 1e-12
        # the result file holds no share
        rows = (tmp_path / "run" / "err_vs_eps.csv").read_text()
        assert rows.splitlines()[0] == "eps,err,ratio_to_prev"

    def test_gate_applies_to_sweep(self, tmp_path):
        cfg = load_fixture("unstable_pair.yaml", output=str(tmp_path / "run"))
        with pytest.raises(HypothesisError):
            run_sweep_eps(cfg)


SWEEP = ["sweep-eps", "--config", str(CONFIG_DIR / "base_case.yaml")]

# runs the CLI with the homogenized march forked; the unflushed line
# before it shows whether a child flushed what it inherited
FORKED_CLI = """
import sys
from minmax_hj import harness
from minmax_hj.cli import main
harness._cpus = lambda: 2
print("before the command")
main(sys.argv[1:])
"""

# a parent killed while the forked child of fork_join runs: the child
# records its pid and sleeps, and the parent then sends itself SIGTERM
KILLED_PARENT = """
import os, signal, sys, time
from minmax_hj import harness
harness._cpus = lambda: 2
out, pid_file = sys.argv[1:]

def child():
    with open(pid_file + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(pid_file + ".tmp", pid_file)
    time.sleep(60)

def parent():
    while not os.path.exists(pid_file):
        time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGTERM)

with harness.RunLock(out):
    harness.fork_join("sleep", child, parent)
"""


def test_results_equal_those_of_the_piece_fold(tmp_path, monkeypatch):
    # every level binding replaced by the fold of the pieces' own
    # bindings (_reference.level_fold), with the base and rows of
    # Hamiltonian.bind_base: through Newton, the schedule fit and the
    # march, no result file of ell2_strict changes a bit
    def run(out):
        files = {}
        for command in (run_effective, run_sweep_eps):
            cfg = load_fixture("ell2_strict.yaml", output=str(
                tmp_path / out / command.__name__))
            names = command(cfg)["files"]
            files.update({(command.__name__, name): sha256(
                tmp_path / out / command.__name__ / name) for name in names})
        return files

    kernel = run("kernel")
    # a level has no bind of its own: the fold is given to it here
    monkeypatch.setattr(LevelHamiltonian, "bind", lambda self, x, medium:
                        level_fold(MinMaxFamily(*self._pieces), x, medium),
                        raising=False)
    monkeypatch.setattr(LevelHamiltonian, "bind_base", Hamiltonian.bind_base)
    assert len(kernel) == 4
    assert run("fold") == kernel


class TestSweepFork:
    """sweep-eps marches the homogenized problem in a forked child while
    the parent marches the eps stack; on one CPU both run inline."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Force the forked path; the list collects the forked pids."""
        pids = []
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid
        monkeypatch.setattr(harness, "_cpus", lambda: 2)
        monkeypatch.setattr(harness.os, "fork", counted)
        return pids

    def sweep(self, out):
        return run_cli(SWEEP + ["--out", str(out)])

    @staticmethod
    def in_child(parent, action):
        """A stand-in for a march that runs ``action`` in a forked
        child and fails the test if it runs in the parent instead."""
        def march(*args, **kwargs):
            assert os.getpid() != parent, "ran in the parent"
            action()
        return march

    def test_forked_and_inline_runs_write_the_same_files(self, tmp_path,
                                                         forks, monkeypatch):
        forked = self.sweep(tmp_path / "forked")
        assert forks and forked.exit_code == 0
        monkeypatch.setattr(harness, "_cpus", lambda: 1)
        inline = self.sweep(tmp_path / "inline")
        assert len(forks) == 1 and inline.exit_code == 0
        assert forked.stdout == inline.stdout
        assert (tmp_path / "forked" / "err_vs_eps.csv").read_bytes() == \
            (tmp_path / "inline" / "err_vs_eps.csv").read_bytes()
        a, b = (json.loads((tmp_path / d / "manifest.json").read_text())
                for d in ("forked", "inline"))
        assert set(a.pop("timings")) == set(b.pop("timings"))
        assert a == b

    def test_child_error_exits_3_with_its_message(self, tmp_path, forks,
                                                  monkeypatch):
        def fail():
            raise NonConvergenceError("homogenized: evolution blew up")
        monkeypatch.setattr(harness, "solve_homogenized",
                            self.in_child(os.getpid(), fail))
        res = self.sweep(tmp_path / "run")
        assert forks and res.exit_code == 3
        assert res.stderr == ("numerical failure: homogenized: evolution "
                              "blew up\n")

    def test_killed_child_exits_3(self, tmp_path, forks, monkeypatch):
        def die():
            os.kill(os.getpid(), signal.SIGKILL)
        monkeypatch.setattr(harness, "solve_homogenized",
                            self.in_child(os.getpid(), die))
        res = self.sweep(tmp_path / "run")
        assert forks and res.exit_code == 3
        assert res.stderr == ("numerical failure: homogenized march: its "
                              "forked process was killed by SIGKILL "
                              "without a result\n")

    def test_parent_error_leaves_no_child(self, tmp_path, forks,
                                          monkeypatch):
        def fail(*args, **kwargs):
            raise NonConvergenceError("eps=0.25: evolution blew up")
        monkeypatch.setattr(harness, "solve_time_dependent", fail)
        res = self.sweep(tmp_path / "run")
        assert forks and res.exit_code == 3
        assert "eps=0.25: evolution blew up" in res.stderr
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_homogenized_error_wins_when_both_fail(self, tmp_path,
                                                   monkeypatch, cpus):
        # as in the inline order, whichever process finishes first
        def hom(*args, **kwargs):
            time.sleep(0.2)
            raise SchemeParameterError("homogenized fails")

        def eps(*args, **kwargs):
            raise NonConvergenceError("eps fails")
        monkeypatch.setattr(harness, "_cpus", lambda: cpus)
        monkeypatch.setattr(harness, "solve_homogenized", hom)
        monkeypatch.setattr(harness, "solve_time_dependent", eps)
        res = self.sweep(tmp_path / "run")
        assert res.exit_code == 3
        assert res.stderr == "numerical failure: homogenized fails\n"

    def test_interrupted_parent_kills_its_child(self, monkeypatch):
        def interrupt():
            raise KeyboardInterrupt
        monkeypatch.setattr(harness, "_cpus", lambda: 2)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            harness.fork_join("sleep", lambda: time.sleep(60), interrupt)
        assert time.perf_counter() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_stdout_is_printed_once(self, tmp_path):
        # block-buffered stdout, so that the first line waits in the buffer
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONUNBUFFERED"}
        res = subprocess.run(
            [sys.executable, "-c", FORKED_CLI, *SWEEP, "--out",
             str(tmp_path / "run")], capture_output=True, text=True,
            env=dict(env, PYTHONPATH=SRC_DIR), timeout=120)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[0] == "before the command"
        assert len(lines) == 5 and lines[-1] == "nonincreasing: True"

    def test_child_holds_no_inherited_descriptor(self, tmp_path, forks):
        # an flock belongs to the open file description, which a child
        # that kept its copy of lock.fd would hold past its parent
        def lock_fd_errno():
            try:
                os.fstat(lock.fd)
            except OSError as err:
                return err.errno
            return 0
        with RunLock(str(tmp_path / "run")) as lock:
            got, _ = harness.fork_join("probe", lock_fd_errno, lambda: None)
        assert forks and got == errno.EBADF

    def test_killed_parent_leaves_no_lock(self, tmp_path):
        # the orphaned child still runs, and holds no lock
        out, pid_file = tmp_path / "run", tmp_path / "child.pid"
        res = subprocess.run(
            [sys.executable, "-c", KILLED_PARENT, str(out), str(pid_file)],
            env=dict(os.environ, PYTHONPATH=SRC_DIR), timeout=60)
        child = int(pid_file.read_text())
        try:
            assert res.returncode == -signal.SIGTERM
            os.kill(child, 0)
            with RunLock(str(out)):
                pass
        finally:
            os.kill(child, signal.SIGKILL)

    def test_lock_is_removed_by_the_parent_only(self, tmp_path, forks,
                                                monkeypatch):
        exits = tmp_path / "exits"
        release = harness.RunLock.__exit__

        def recorded(lock, *exc):
            with open(exits, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return release(lock, *exc)
        monkeypatch.setattr(harness.RunLock, "__exit__", recorded)
        res = self.sweep(tmp_path / "run")
        assert forks and res.exit_code == 0
        assert exits.read_text() == f"{os.getpid()}\n"
        assert not (tmp_path / "run" / ".lock").exists()


class TestReplacedFiles:
    """A rerun into a run directory replaces its files: it renames onto no
    existing path, truncates nothing to zero and opens no existing
    non-empty file for writing (on ext4 with auto_da_alloc each of these
    forces the data to disk)."""

    def test_reruns_replace_and_write_the_same_bytes(self, tmp_path,
                                                     monkeypatch):
        out = tmp_path / "run"
        replace, ftruncate = os.replace, os.ftruncate

        def guarded_replace(src, dst, **kwargs):
            if os.path.lexists(dst):
                raise AssertionError(f"rename over {dst}")
            return replace(src, dst, **kwargs)

        def guarded_ftruncate(fd, length):
            if length == 0:
                raise AssertionError("truncation to zero")
            return ftruncate(fd, length)

        def guarded_open(file, mode="r", *args, **kwargs):
            if (set(mode) & set("wa+") and os.path.isfile(file)
                    and os.path.getsize(file) > 0):
                raise AssertionError(f"{file} opened for writing")
            return open(file, mode, *args, **kwargs)
        monkeypatch.setattr(harness.os, "replace", guarded_replace)
        monkeypatch.setattr(harness.os, "ftruncate", guarded_ftruncate)
        monkeypatch.setattr(harness, "open", guarded_open, raising=False)

        cfg = ExperimentConfig(small_config(output=str(out)))
        runs = []
        for _ in range(2):
            # plotdata plots the files of the last run's manifest only
            manifests = [run_check(cfg), run_effective(cfg)]
            run_plotdata(str(out))
            manifests.append(run_sweep_eps(cfg))
            # the second plotdata replaces what the first wrote
            run_plotdata(str(out))
            run_plotdata(str(out))
            runs.append(({p.name: p.read_bytes() for p in out.iterdir()
                          if p.name != "manifest.json"}, manifests))
        (first, first_manifests), (second, second_manifests) = runs
        assert sorted(first) == ["eps_loglog.dat", "err_vs_eps.csv"]
        assert second == first
        for m1, m2 in zip(first_manifests, second_manifests):
            del m1["timings"], m2["timings"]
            assert m1 == m2


class TestPlotdata:
    def test_effective_run_yields_curves_and_plateau(self, tmp_path):
        cfg = ExperimentConfig(small_config(output=str(tmp_path / "run")))
        run_effective(cfg)
        written = run_plotdata(str(tmp_path / "run"))
        names = [os.path.basename(p) for p in written]
        assert names == ["hbar_curves.dat", "plateau.dat"]
        plateau = (tmp_path / "run" / "plateau.dat").read_text().splitlines()
        assert plateau[0] == "# region p value"
        body = [line.split() for line in plateau[1:]]
        # the base pair plateaus at height 1 on |p| <= 3/2
        assert {row[0] for row in body} == {"1"}
        ps = [float(row[1]) for row in body]
        assert ps[0] == -1.5 and ps[-1] == 1.5
        assert all(float(row[2]) == 1.0 for row in body)

    def test_sweep_run_yields_loglog(self, tmp_path):
        cfg = ExperimentConfig(small_config(output=str(tmp_path / "run")))
        run_sweep_eps(cfg)
        written = run_plotdata(str(tmp_path / "run"))
        assert [os.path.basename(p) for p in written] == ["eps_loglog.dat"]
        lines = (tmp_path / "run" / "eps_loglog.dat").read_text().splitlines()
        assert lines[0] == "# eps err log10_eps log10_err"
        assert len(lines) == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(small_config(output=str(tmp_path / "run")))
        run_effective(cfg)
        first = run_plotdata(str(tmp_path / "run"))
        before = {p: Path(p).read_bytes() for p in first}
        second = run_plotdata(str(tmp_path / "run"))
        assert first == second
        assert all(Path(p).read_bytes() == before[p] for p in second)

    def test_plots_only_the_files_of_the_last_run(self, tmp_path):
        # the sweep unlinks the effective CSVs and the curves plotted
        # from them
        out = tmp_path / "run"
        cfg = ExperimentConfig(small_config(output=str(out)))
        run_effective(cfg)
        run_plotdata(str(out))
        run_sweep_eps(cfg)
        written = run_plotdata(str(out))
        assert written == [str(out / "eps_loglog.dat")]
        assert sorted(os.listdir(out)) == [
            "eps_loglog.dat", "err_vs_eps.csv", "manifest.json"]

    def test_check_leaves_only_its_manifest(self, tmp_path):
        # of the result files: a file that no command writes stays
        out = tmp_path / "run"
        cfg = ExperimentConfig(small_config(output=str(out)))
        run_effective(cfg)
        run_plotdata(str(out))
        (out / "notes.txt").write_text("kept\n")
        run_check(cfg)
        assert sorted(os.listdir(out)) == ["manifest.json", "notes.txt"]

    def test_changed_result_file_exits_4_naming_it(self, tmp_path):
        out = tmp_path / "run"
        run_effective(ExperimentConfig(small_config(output=str(out))))
        compare = out / "compare.csv"
        compare.write_text(compare.read_text() + "9,9,9,0\n")
        res = run_cli(["plotdata", str(out)])
        assert res.exit_code == 4
        assert res.stderr == (f"config error: {compare}: sha256 differs "
                              f"from the manifest's; the file changed "
                              f"after its run\n")
        compare.unlink()
        res = run_cli(["plotdata", str(out)])
        assert res.exit_code == 4
        assert str(compare) in res.stderr
        manifest = out / "manifest.json"
        # not JSON, JSON of the wrong shape, a files list for a map
        for text in ("{", "[]", "null", '{"files": ["compare.csv"]}'):
            manifest.write_text(text)
            res = run_cli(["plotdata", str(out)])
            assert res.exit_code == 4
            assert res.stderr.startswith(f"config error: {manifest}: not a "
                                         f"run manifest")
        assert sorted(os.listdir(out)) == ["formula.csv", "manifest.json",
                                           "numeric.csv"]

    COMPARE = "p,numeric,formula,abs_err\n-1,1,1,0\n0,1,1,0\n1,1,1,0\n"

    @pytest.mark.parametrize("files,name,message", [
        ({"compare.csv": "p,numeric,formula,abs_err\n"}, "compare.csv",
         "no row below the header"),
        ({"compare.csv": ""}, "compare.csv",
         "line 1: the header is not p,numeric,formula,abs_err,..."),
        ({"compare.csv": "p,numeric,formula,abs_err\n0,1,one,0\n"},
         "compare.csv",
         "line 2: could not convert string to float: 'one'"),
        ({"compare.csv": "p,numeric,formula,abs_err\n0,1,1,0\n\n1,1\n"},
         "compare.csv", "line 4: 2 fields, but the header has 4"),
        ({"compare.csv": COMPARE,
          "err_vs_eps.csv": "eps,err,ratio_to_prev\n0.5,0.1,nan\n0.25\n"},
         "err_vs_eps.csv", "line 3: 1 fields, but the header has 3"),
        ({"err_vs_eps.csv": "eps,err\n0.5,0.1\n"}, "err_vs_eps.csv",
         "line 1: the header is not eps,err,ratio_to_prev"),
        ({"compare.csv": b"p,numeric,formula,abs_err\n0,1,\xff,0\n"},
         "compare.csv",
         "line 2: could not convert string to float: '\ufffd'")],
        ids=["header-only", "empty", "non-numeric", "short-compare-row",
             "short-sweep-row", "sweep-header", "not-utf8"])
    def test_misshapen_listed_csv_exits_4_writing_nothing(
            self, tmp_path, files, name, message):
        # each file matches its manifest sha256: only its shape is wrong,
        # and every CSV is checked before any .dat file is written
        out = tmp_path / "run"
        out.mkdir()
        for listed, text in files.items():
            data = text if isinstance(text, bytes) else text.encode()
            (out / listed).write_bytes(data)
        (out / "manifest.json").write_text(json.dumps(
            {"files": {listed: sha256(out / listed) for listed in files}}))
        res = run_cli(["plotdata", str(out)])
        assert res.exit_code == 4
        assert res.stderr.startswith(f"config error: {out / name}: {message}")
        assert "Traceback" not in res.output
        assert sorted(os.listdir(out)) == sorted(["manifest.json", *files])

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no compare.csv"):
            run_plotdata(str(tmp_path))

    def test_takes_the_lock_of_an_existing_directory(self, tmp_path):
        # a missing directory is not made, as the lock would make it
        with pytest.raises(ConfigError, match="no compare.csv"):
            run_plotdata(str(tmp_path / "nope"))
        assert not (tmp_path / "nope").exists()
        out = tmp_path / "run"
        run_sweep_eps(ExperimentConfig(small_config(output=str(out))))
        holder = subprocess.Popen(
            [sys.executable, "-c", HOLD_LOCK, str(out)],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC_DIR))
        try:
            assert holder.stdout.readline() == "held\n"
            res = run_cli(["plotdata", str(out)])
            assert res.exit_code == 4
            assert "locked" in res.stderr
            assert not (out / "eps_loglog.dat").exists()
        finally:
            holder.kill()
            holder.wait(timeout=10)
            holder.stdout.close()
        res = run_cli(["plotdata", str(out)])
        assert res.exit_code == 0
        assert sorted(os.listdir(out)) == ["eps_loglog.dat", "err_vs_eps.csv",
                                           "manifest.json"]


class TestCLI:
    def invoke(self, *args):
        return run_cli(list(args))

    def test_check_passes_on_clean_fixture(self, tmp_path):
        res = self.invoke("check", "--config",
                          str(CONFIG_DIR / "xindep.yaml"),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 0
        assert "ordering: pass" in res.output
        assert "stable_pairs: pass" in res.output

    def test_check_exits_2_on_unstable_pair(self, tmp_path):
        res = self.invoke("check", "--config",
                          str(CONFIG_DIR / "unstable_pair.yaml"),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 2
        assert "stable_pairs: FAIL" in res.output
        assert "variation" in res.stderr

    def test_check_exits_2_on_broken_chain(self, tmp_path):
        res = self.invoke("check", "--config",
                          str(CONFIG_DIR / "monotonicity_violation.yaml"),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 2
        assert "contact_monotonicity: FAIL" in res.output
        assert '"upper"' in res.stderr and '"index": 1' in res.stderr

    def test_effective_reports_error(self, tmp_path):
        res = self.invoke("effective", "--config",
                          str(CONFIG_DIR / "xindep.yaml"),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 0
        assert "max_abs_err: 0" in res.output

    def test_effective_runs_a_relaxation_fallback(self, tmp_path):
        # the base case on a two-valued checkerboard: at p = 0 and the
        # first rate Newton declines and relaxation converges
        data = yaml.safe_load((CONFIG_DIR / "base_case.yaml").read_text())
        data.update(
            medium={"kind": "checkerboard", "period": 1.0, "channels": [
                {"cell": 0.5, "low": 0.0, "high": 1.0}]},
            solver={"n": 256, "length": 1.0},
            lambda_schedule=[0.16, 0.08, 0.04], eps_schedule=[0.25])
        path = tmp_path / "fallback.yaml"
        path.write_text(yaml.safe_dump(data))
        res = self.invoke("effective", "--config", str(path),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["solver_stats"]["fallbacks"] == [
            {"p": 0.0, "lam": 0.16}]

    def test_effective_exits_2_without_force(self, tmp_path):
        res = self.invoke("effective", "--config",
                          str(CONFIG_DIR / "unstable_pair.yaml"),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 2
        assert "hypothesis failure" in res.stderr

    @pytest.mark.parametrize("command", ["effective", "sweep-eps"])
    def test_ordering_failure_exits_2_with_witness(self, tmp_path, command):
        # stable pairs and monotone chains, but check_1 = |p| - 1 falls
        # below check_2 = 2|p| - 6 where |p| > 5, first at p = -6
        data = yaml.safe_load((CONFIG_DIR / "xindep.yaml").read_text())
        piece = lambda kind, slope, offset: {"profile": {
            "kind": kind, "center": 0.0, "slope": slope, "offset": offset}}
        data["family"] = {
            "checks": [piece("abs_shift", 1.0, -1.0),
                       piece("abs_shift", 2.0, -6.0)],
            "hats": [piece("negated_abs", 1.0, 1.0),
                     piece("negated_abs", 1.0, 3.0)]}
        data["p_axis"] = {"min": -6, "max": 6, "count": 25}
        path = tmp_path / "ordering.yaml"
        path.write_text(yaml.safe_dump(data))
        res = self.invoke(command, "--config", str(path),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 2
        first, *witness = res.stderr.splitlines()
        assert first == (
            "hypothesis failure: hypothesis gate: ordering violated: seed 0: "
            "check pieces out of order at levels 1/2: values 5 vs 6 at "
            "p=-6.0, x=0.0")
        assert len(witness) == 1 and witness[0].startswith("witness: ")
        assert json.loads(witness[0][len("witness: "):]) == {
            "seed": 0, "kind": "check", "level": 1, "p": -6.0, "x": 0.0,
            "lhs": 5.0, "rhs": 6.0}

    def test_broken_chain_gate_prints_witness(self, tmp_path):
        res = self.invoke("effective", "--config",
                          str(CONFIG_DIR / "monotonicity_violation.yaml"),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 2
        assert res.stderr.splitlines()[1:] == [
            'witness: [{"chain": "upper", "index": 1, "values": [1.0, 2.5]}]']

    def test_effective_force_runs(self, tmp_path):
        res = self.invoke("effective", "--config",
                          str(CONFIG_DIR / "unstable_pair.yaml"),
                          "--out", str(tmp_path / "run"), "--force")
        assert res.exit_code == 0

    def test_sweep_reports_each_eps(self, tmp_path):
        res = self.invoke("sweep-eps", "--config",
                          str(CONFIG_DIR / "xindep.yaml"),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 0
        assert res.output.count("eps=") == 3
        assert "nonincreasing: True" in res.output

    def test_plotdata_round_trip(self, tmp_path):
        out = str(tmp_path / "run")
        assert self.invoke("effective", "--config",
                           str(CONFIG_DIR / "xindep.yaml"),
                           "--out", out).exit_code == 0
        res = self.invoke("plotdata", out)
        assert res.exit_code == 0
        assert "hbar_curves.dat" in res.output

    def test_plotdata_exits_4_on_empty_dir(self, tmp_path):
        res = self.invoke("plotdata", str(tmp_path))
        assert res.exit_code == 4
        assert "config error" in res.stderr

    def test_missing_config_exits_4(self, tmp_path):
        res = self.invoke("check", "--config",
                          str(tmp_path / "nope.yaml"),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 4

    def test_bad_schedule_exits_4(self, tmp_path):
        path = tmp_path / "bad.yaml"
        data = small_config(lambda_schedule=[0.04, 0.08, 0.16],
                            output=str(tmp_path / "run"))
        path.write_text(yaml.safe_dump(data))
        res = self.invoke("check", "--config", str(path))
        assert res.exit_code == 4
        assert "strictly decreasing" in res.stderr

    @pytest.mark.parametrize("roles", [("checks", "hats"), ("hats",)])
    def test_vector_center_exits_4_naming_the_piece(self, tmp_path, roles):
        data = yaml.safe_load((CONFIG_DIR / "xindep.yaml").read_text())
        for role in roles:
            data["family"][role][0]["profile"]["center"] = [0.0, 0.0]
        data["output"] = str(tmp_path / "run")
        path = tmp_path / "vector.yaml"
        path.write_text(yaml.safe_dump(data))
        res = self.invoke("check", "--config", str(path))
        assert res.exit_code == 4
        assert (f"family.{roles[0]}[0].profile.center: [0.0, 0.0] is not "
                f"a finite number") in res.stderr

    @pytest.mark.parametrize("config", ["base_case.yaml", "xindep.yaml"])
    def test_two_dimensional_medium_exits_4(self, tmp_path, config):
        # base_case couples its pieces to the medium, xindep does not
        data = yaml.safe_load((CONFIG_DIR / config).read_text())
        data["medium"]["dim"] = 2
        data["output"] = str(tmp_path / "run")
        path = tmp_path / "dim2.yaml"
        path.write_text(yaml.safe_dump(data))
        res = self.invoke("check", "--config", str(path))
        assert res.exit_code == 4
        assert "medium.dim: 2" in res.stderr

    def test_lock_of_an_exited_process_is_taken_over(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text(str(child.pid))
        res = self.invoke("check", "--config",
                          str(CONFIG_DIR / "xindep.yaml"),
                          "--out", str(out))
        assert res.exit_code == 0
        assert sorted(os.listdir(out)) == ["manifest.json"]

    def test_lock_file_of_a_live_process_does_not_block(self, tmp_path):
        # a pid reused after a crash: alive, but holding no lock
        sleeper = subprocess.Popen(["sleep", "60"])
        try:
            out = tmp_path / "run"
            out.mkdir()
            (out / ".lock").write_text(str(sleeper.pid))
            res = self.invoke("check", "--config",
                              str(CONFIG_DIR / "xindep.yaml"),
                              "--out", str(out))
            assert res.exit_code == 0
            assert sorted(os.listdir(out)) == ["manifest.json"]
        finally:
            sleeper.kill()
            sleeper.wait(timeout=10)

    def test_locked_directory_exits_4(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        check = ["check", "--config", str(CONFIG_DIR / "xindep.yaml"),
                 "--out", str(out)]
        holder = subprocess.Popen(
            [sys.executable, "-c", HOLD_LOCK, str(out)],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC_DIR))
        try:
            assert holder.stdout.readline() == "held\n"
            assert (out / ".lock").read_text() == str(holder.pid)
            res = self.invoke(*check)
            assert res.exit_code == 4
            assert "locked" in res.stderr
            assert str(out / ".lock") in res.stderr
            assert (out / ".lock").read_text() == str(holder.pid)
            # killed and not yet reaped: its pid still exists, its lock
            # went with it
            holder.kill()
            os.waitid(os.P_PID, holder.pid, os.WEXITED | os.WNOWAIT)
            res = self.invoke(*check)
            assert res.exit_code == 0
            assert sorted(os.listdir(out)) == ["manifest.json"]
        finally:
            holder.kill()
            holder.wait(timeout=10)
            holder.stdout.close()

    def test_unmakeable_run_directory_exits_4(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "run"
        res = self.invoke("check", "--config",
                          str(CONFIG_DIR / "xindep.yaml"), "--out", str(out))
        assert res.exit_code == 4
        assert isinstance(res.exception, SystemExit)
        assert str(out) in res.stderr
        assert "Not a directory" in res.stderr

    def test_seed_override_lands_in_manifest(self, tmp_path):
        out = tmp_path / "run"
        res = self.invoke("check", "--config",
                          str(CONFIG_DIR / "xindep.yaml"),
                          "--out", str(out), "--seed", "7")
        assert res.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["contact_constants"]["seeds"] == [7]

    @pytest.mark.parametrize("command", ["effective", "sweep-eps"])
    def test_several_seeds_exit_4_naming_seeds(self, tmp_path, command):
        # both commands solve in the first seed's medium only
        data = yaml.safe_load((CONFIG_DIR / "xindep.yaml").read_text())
        data["seeds"] = [0, 1]
        data["output"] = str(tmp_path / "run")
        path = tmp_path / "seeds.yaml"
        path.write_text(yaml.safe_dump(data))
        res = self.invoke(command, "--config", str(path))
        assert res.exit_code == 4
        assert (f"seeds: [0, 1] lists 2 seeds, but {command} solves in one "
                f"medium; choose one with --seed") in res.stderr
        assert not (tmp_path / "run").exists()
        res = self.invoke(command, "--config", str(path), "--seed", "1")
        assert res.exit_code == 0

    def test_check_keeps_every_seed(self, tmp_path):
        data = yaml.safe_load((CONFIG_DIR / "xindep.yaml").read_text())
        data["seeds"] = [0, 1, 2]
        path = tmp_path / "seeds.yaml"
        path.write_text(yaml.safe_dump(data))
        out = tmp_path / "run"
        res = self.invoke("check", "--config", str(path), "--out", str(out))
        assert res.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["contact_constants"]["seeds"] == [0, 1, 2]

    def test_check_judges_ordering_in_every_seed(self, tmp_path):
        # check_1 = |p| - 1 + V dominates check_2 = |p| - 0.5 only where
        # V >= 0.5; on two cells seed 1 draws (0.51, 0.95) and seed 0
        # draws (0.64, 0.27): the gap is the same at every p, and the
        # witness sits at the kink
        data = small_config(seeds=[1, 0], output=str(tmp_path / "run"))
        data["medium"] = {"kind": "checkerboard", "period": 1.0,
                          "channels": [{"cell": 0.5, "low": 0.0,
                                        "high": 1.0}]}
        data["family"]["checks"].append(
            {"profile": {"kind": "abs_shift", "center": 0.0, "slope": 1.0,
                         "offset": -0.5}})
        data["family"]["hats"].append(
            {"profile": {"kind": "negated_abs", "center": 0.0, "slope": 1.0,
                         "offset": 3.0}})
        path = tmp_path / "two_seeds.yaml"
        path.write_text(yaml.safe_dump(data))
        res = self.invoke("check", "--config", str(path))
        assert res.exit_code == 2
        assert "ordering: FAIL" in res.output
        witness = [line for line in res.stderr.splitlines()
                   if line.startswith("witness[ordering]: ")]
        assert len(witness) == 1
        assert json.loads(witness[0][len("witness[ordering]: "):]) == {
            "seed": 0, "kind": "check", "level": 1, "p": 0.0, "x": 0.5,
            "lhs": pytest.approx(-0.73021, abs=1e-5), "rhs": -0.5}
        res = self.invoke("check", "--config", str(path), "--seed", "1")
        assert "ordering: pass" in res.output

    def test_negative_seed_override_exits_4(self, tmp_path):
        # a checkerboard medium seeds its generator with the seed
        data = small_config(output=str(tmp_path / "run"))
        data["medium"] = {"kind": "checkerboard", "period": 1.0,
                          "channels": [{"cell": 0.25, "low": 0.0,
                                        "high": 1.0}]}
        path = tmp_path / "checkerboard.yaml"
        path.write_text(yaml.safe_dump(data))
        res = self.invoke("check", "--config", str(path), "--seed", "-1")
        assert res.exit_code == 4
        assert "--seed: -1 is negative" in res.stderr

    def test_unknown_key_exits_4_naming_it(self, tmp_path):
        path = tmp_path / "typo.yaml"
        data = small_config(output=str(tmp_path / "run"))
        data["solver"]["solver_typo"] = 1
        path.write_text(yaml.safe_dump(data))
        res = self.invoke("check", "--config", str(path))
        assert res.exit_code == 4
        assert "solver.solver_typo: unknown key" in res.stderr

    @pytest.mark.parametrize("path,value,message", [
        ("family.orientation", "min_first",
         "family.orientation: unknown key"),
        ("family.checks[0].scal", 2.0, "family.checks[0].scal: unknown key"),
        ("medium", 5, "medium: 5 is not a mapping"),
        ("family.checks[0].profile.offset", "-1.0",
         "family.checks[0].profile.offset: '-1.0' is not a finite number"),
        ("family.checks[0].profile.slop", 1,
         "family.checks[0].profile.slop: unknown key")])
    def test_bad_field_exits_4_naming_it(self, tmp_path, path, value,
                                         message):
        data = yaml.safe_load((CONFIG_DIR / "base_case.yaml").read_text())
        set_path(data, path, value)
        data["output"] = str(tmp_path / "run")
        config = tmp_path / "bad.yaml"
        config.write_text(yaml.safe_dump(data))
        res = self.invoke("check", "--config", str(config))
        assert res.exit_code == 4
        assert message in res.stderr

    @pytest.mark.parametrize("center", [0.01, 0.035, 0.0])
    def test_shifted_hat_is_an_unstable_pair(self, tmp_path, center):
        # base_case with the hat's center moved off the check's: the V
        # boundary values differ by the shift, which ten steps of a
        # gradient grid used to forgive
        data = yaml.safe_load((CONFIG_DIR / "base_case.yaml").read_text())
        data["family"]["hats"][0]["profile"]["center"] = center
        data["output"] = str(tmp_path / "run")
        path = tmp_path / "shifted.yaml"
        path.write_text(yaml.safe_dump(data))
        res = self.invoke("check", "--config", str(path))
        if center == 0.0:
            assert res.exit_code == 0 and "stable_pairs: pass" in res.output
            return
        assert res.exit_code == 2 and "stable_pairs: FAIL" in res.output
        line, = [line for line in res.stderr.splitlines()
                 if line.startswith("witness[stable_pairs]: ")]
        for w in json.loads(line[len("witness[stable_pairs]: "):]):
            low, high = w["boundary_values_V"]
            assert high - low == pytest.approx(center, abs=1e-12)
            assert w["variation"] == high - low

    def test_contact_constants_report_the_exact_gate(self, tmp_path):
        out = tmp_path / "run"
        res = self.invoke("check", "--config",
                          str(CONFIG_DIR / "unstable_pair.yaml"),
                          "--out", str(out))
        assert res.exit_code == 2
        consts = json.loads((out / "manifest.json").read_text())[
            "contact_constants"]
        # no piece couples to the medium: one state
        assert consts["n_states"] == [1]
        # 1e-12 times the largest |value|: L = 3 at the kink -1
        assert consts["stability_tolerance"] == 3e-12
        assert consts["n_unstable"] == 4096
        assert len(consts["witnesses"]) == 8 and "n_x" not in consts

    def _off_axis_sweep(self, tmp_path, axis):
        # ell2_strict with the cosine u0 on one period: its grid slopes
        # reach 2 pi sin(pi / 256) * 256 / pi = 6.28
        data = yaml.safe_load((CONFIG_DIR / "ell2_strict.yaml").read_text())
        data.update(solver={"n": 256, "length": 1.0},
                    eps_schedule=[0.25, 0.125, 0.0625, 0.03125],
                    p_axis={"min": -axis, "max": axis, "count": 33},
                    output=str(tmp_path / "run"))
        data["evolution"]["u0"] = "cosine"
        path = tmp_path / f"axis{axis}.yaml"
        path.write_text(yaml.safe_dump(data))
        return self.invoke("sweep-eps", "--config", str(path))

    def test_sweep_with_slopes_off_the_axis_exits_4(self, tmp_path):
        res = self._off_axis_sweep(tmp_path, 3.0)
        assert res.exit_code == 4
        assert ("p_axis: [-3, 3] does not hold the grid slopes of "
                "evolution.u0 'cosine', which reach [-6.28") in res.stderr
        assert not (tmp_path / "run").exists()
        # check and effective do not march
        res = self.invoke("check", "--config", str(tmp_path / "axis3.0.yaml"))
        assert res.exit_code == 0

    def test_sweep_with_slopes_on_the_axis_runs(self, tmp_path):
        res = self._off_axis_sweep(tmp_path, 8.0)
        assert res.exit_code == 0
        errs = [float(line.split("=")[-1]) for line in res.output.splitlines()
                if line.startswith("eps=")]
        assert len(errs) == 4 and errs[-1] < 0.5 * errs[0]

    @pytest.mark.parametrize("theta", [0.9, 0.5])
    @pytest.mark.parametrize("command", ["check", "sweep-eps"])
    def test_theta_below_the_lipschitz_bound_exits_4(self, tmp_path, theta,
                                                     command):
        # below the bound 1 of base_case the scheme is not monotone: at
        # 0.9 sweep-eps used to exit 0 with errors that shrink at half
        # the rate, at 0.5 it left the comparison band
        data = yaml.safe_load((CONFIG_DIR / "base_case.yaml").read_text())
        data["solver"]["theta"] = theta
        data["output"] = str(tmp_path / "run")
        path = tmp_path / "theta.yaml"
        path.write_text(yaml.safe_dump(data))
        res = self.invoke(command, "--config", str(path))
        assert res.exit_code == 4
        assert (f"solver.theta: {theta:g} is below 1, the family's "
                f"Lipschitz bound in p") in res.stderr
        assert not (tmp_path / "run").exists()

    def test_misshapen_curve_exits_3(self, tmp_path):
        # a 9-point axis misses the coercive rise of the two-level curve
        path = tmp_path / "ell2_9.yaml"
        data = yaml.safe_load((CONFIG_DIR / "ell2_strict.yaml").read_text())
        data["p_axis"]["count"] = 9
        data["output"] = str(tmp_path / "run")
        path.write_text(yaml.safe_dump(data))
        res = self.invoke("effective", "--config", str(path))
        assert res.exit_code == 3
        assert "does not rise at the ends" in res.stderr

    def test_misshapen_exact_curve_exits_3_without_solving(self, tmp_path,
                                                           monkeypatch):
        # on [-3, -2] the exact curve of check_1 falls all the way, so it
        # does not rise at the right end: the run fails there, before any
        # numeric solve, and the message names the piece and the end
        def solve(*args, **kwargs):
            raise AssertionError("numeric solve of an additive piece")
        monkeypatch.setattr(harness, "estimate_effective", solve)
        data = yaml.safe_load((CONFIG_DIR / "base_case.yaml").read_text())
        data.update(p_axis={"min": -3, "max": -2, "count": 9},
                    solver={"n": 256, "length": 1.0},
                    lambda_schedule=[0.16, 0.08, 0.04],
                    output=str(tmp_path / "run"))
        path = tmp_path / "short_axis.yaml"
        path.write_text(yaml.safe_dump(data))
        res = self.invoke("effective", "--config", str(path))
        assert res.exit_code == 3
        assert res.stderr == (
            "numerical failure: coercive curve does not rise at the ends: "
            "the check_1 oracle curve's right end slope is -1 between "
            "p=-2.125 and p=-2, and the allowed slope there is >= -8e-09\n")

    @pytest.mark.parametrize("command", ["check", "effective"])
    def test_nonpositive_periodic_amplitude_exits_4_naming_the_field(
            self, tmp_path, command):
        # 0.5 + cos(2 pi x) reaches -0.5 in every period, so no run of
        # this config could bind the piece: it is refused at load
        data = yaml.safe_load((CONFIG_DIR / "base_case.yaml").read_text())
        data["medium"]["channels"].append(
            {"formula": "cos", "amplitude": 1.0, "offset": 0.5})
        data["family"]["checks"][0].update(coupling="amplitude", channel=1)
        data["output"] = str(tmp_path / "run")
        path = tmp_path / "amplitude.yaml"
        path.write_text(yaml.safe_dump(data))
        res = self.invoke(command, "--config", str(path))
        assert res.exit_code == 4
        assert ("family.checks[0].channel: medium.channels[1] reaches -0.5 "
                "<= 0") in res.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["check", "effective"])
    def test_nonpositive_amplitude_exits_3_naming_the_node(self, tmp_path,
                                                           command):
        # a checkerboard channel on [-0.5, 1) may or may not draw a
        # coefficient <= 0; seed 2 draws one cell, [0.5, 0.75), at
        # -0.191727, and the first binding that meets it fails
        data = yaml.safe_load((CONFIG_DIR / "base_case.yaml").read_text())
        data["medium"] = {"kind": "checkerboard", "period": 1.0, "channels": [
            {"cell": 0.25, "low": 0.0, "high": 1.0},
            {"cell": 0.25, "low": -0.5, "high": 1.0}]}
        data["family"]["checks"][0].update(coupling="amplitude", channel=1)
        data["seeds"] = [2]
        data["output"] = str(tmp_path / "run")
        path = tmp_path / "amplitude.yaml"
        path.write_text(yaml.safe_dump(data))
        cfg = ExperimentConfig.from_yaml(str(path))
        table = sample_realization(cfg.medium_spec, 2).tables[1]
        assert [v <= 0 for v in table] == [False, False, True, False]
        res = self.invoke(command, "--config", str(path))
        assert res.exit_code == 3
        assert ("amplitude channel 1 has coefficient -0.191727 <= 0 at "
                "x=0.5") in res.stderr
        assert "witness" not in res.stderr

    def test_nonpositive_amplitude_met_first_by_the_oracle(self, tmp_path):
        # 16 cells on [-0.25, 1), seed 5: only cells 7 and 13 draw a
        # coefficient <= 0; the 4096-node table that the hypothesis stage
        # and the piece curves both read meets cell 7 at x = 7/16: check
        # fails as effective does
        data = yaml.safe_load((CONFIG_DIR / "base_case.yaml").read_text())
        data["medium"] = {"kind": "checkerboard", "period": 1.0, "channels": [
            {"cell": 0.25, "low": 0.0, "high": 1.0},
            {"cell": 0.0625, "low": -0.25, "high": 1.0}]}
        data["family"]["checks"][0].update(coupling="amplitude", channel=1)
        data["seeds"] = [5]
        path = tmp_path / "amplitude.yaml"
        path.write_text(yaml.safe_dump(data))
        cfg = ExperimentConfig.from_yaml(str(path))
        medium = sample_realization(cfg.medium_spec, 5)
        assert np.flatnonzero(medium.tables[1] <= 0).tolist() == [7, 13]
        message = ("amplitude channel 1 has coefficient -0.161503 <= 0 at "
                   "x=0.4375")
        with pytest.raises(ProfileShapeError, match=re.escape(message)):
            PieceTable(cfg.family, [medium])
        for command in ("check", "effective"):
            res = self.invoke(command, "--config", str(path),
                              "--out", str(tmp_path / command))
            assert res.exit_code == 3
            assert res.stderr == f"numerical failure: {message}; the " \
                "convexity tag would be invalid\n"

    def test_nonpositive_amplitude_in_the_second_draw_exits_3(self,
                                                              tmp_path):
        # of the amplitude channel's four cells, seeds 0 and 5 draw none
        # <= 0 and seed 2 draws cell 2 at -0.191727: the message is the
        # one the per-seed tables meet first
        data = yaml.safe_load((CONFIG_DIR / "base_case.yaml").read_text())
        data["medium"] = {"kind": "checkerboard", "period": 1.0, "channels": [
            {"cell": 0.25, "low": 0.0, "high": 1.0},
            {"cell": 0.25, "low": -0.5, "high": 1.0}]}
        data["family"]["checks"][0].update(coupling="amplitude", channel=1)
        data["seeds"] = [0, 2, 5]
        path = tmp_path / "amplitude.yaml"
        path.write_text(yaml.safe_dump(data))
        cfg = ExperimentConfig.from_yaml(str(path))
        media = [sample_realization(cfg.medium_spec, s) for s in cfg.seeds]
        with pytest.raises(ProfileShapeError) as want:
            per_seed_hypotheses(cfg.family, media)
        assert "coefficient -0.191727 <= 0 at x=0.5;" in str(want.value)
        res = self.invoke("check", "--config", str(path),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 3
        assert res.stderr == f"numerical failure: {want.value}\n"

    def test_amplitude_coupled_base_case_is_checked_by_the_oracle(
            self, tmp_path):
        # both pieces scaled by 1/2 + sin^2: the formula's piece curves
        # are exact, so only the family curve is solved, and the two
        # estimates differ by the solver's error alone
        data = yaml.safe_load((CONFIG_DIR / "base_case.yaml").read_text())
        data["medium"]["channels"] = [
            {"formula": "sin_sq", "amplitude": 1.0, "offset": 0.5}]
        for piece in data["family"]["checks"] + data["family"]["hats"]:
            piece["coupling"] = "amplitude"
        path = tmp_path / "amplitude.yaml"
        path.write_text(yaml.safe_dump(data))
        res = self.invoke("effective", "--config", str(path),
                          "--out", str(tmp_path / "effective"))
        assert res.exit_code == 0
        manifest = json.loads(
            (tmp_path / "effective" / "manifest.json").read_text())
        stats = manifest["solver_stats"]
        assert stats["solves"] == {"newton": 132}
        assert [r["p"] for r in stats["per_p"]] == \
            np.linspace(-3.0, 3.0, 33).tolist()
        assert 0.0 < manifest["max_abs_err"] <= 1e-3
        res = self.invoke("sweep-eps", "--config", str(path),
                          "--out", str(tmp_path / "sweep"))
        assert res.exit_code == 0

    def test_other_package_errors_exit_3(self, tmp_path, monkeypatch):
        def broken(cfg, out_dir=None):
            raise MinMaxHJError("no strictly monotone shift")
        monkeypatch.setattr("minmax_hj.cli.run_check", broken)
        res = self.invoke("check", "--config",
                          str(CONFIG_DIR / "xindep.yaml"),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 3
        assert "no strictly monotone shift" in res.stderr

    # README's exit-code table, one entry per class in errors.py
    EXIT_CODES = {"HypothesisError": 2, "ConfigError": 4, "RunLockError": 4,
                  "MinMaxHJError": 3,
                  "ProfileShapeError": 3, "NonConvergenceError": 3,
                  "SchemeParameterError": 3}

    def test_exit_code_table_names_every_error_class(self):
        assert set(self.EXIT_CODES) == {
            name for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, MinMaxHJError)}

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_error_class_exits_with_its_code(self, name, capsys):
        def fail():
            raise getattr(errors, name)("boom")
        with pytest.raises(SystemExit) as stop:
            cli._guarded(fail)
        assert stop.value.code == self.EXIT_CODES[name]
        assert "boom" in capsys.readouterr().err

    @pytest.mark.parametrize("command, loads_scipy", [
        ("check", False), ("sweep-eps", False), ("effective", True)])
    def test_only_the_cell_solver_imports_scipy(self, tmp_path, command,
                                                loads_scipy):
        # a fresh interpreter, so that nothing else has imported scipy;
        # effective shows that the banded solve still reaches it
        probe = ("import sys\n"
                 "from minmax_hj.cli import main\n"
                 "try:\n"
                 "    main(sys.argv[1:])\n"
                 "except SystemExit as stop:\n"
                 "    assert not stop.code, stop.code\n"
                 "print('scipy' in sys.modules)\n")
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run(
            [sys.executable, "-c", probe, command, "--config",
             str(CONFIG_DIR / "base_case.yaml"), "--out",
             str(tmp_path / "run")],
            env=env, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == str(loads_scipy)

    def test_version_flag(self):
        res = self.invoke("--version")
        assert res.exit_code == 0 and __version__ in res.output

    @pytest.mark.parametrize("args, named", [
        (["check"], "the following arguments are required: --config"),
        (["check", "--config", str(CONFIG_DIR / "xindep.yaml"), "--bogus"],
         "unrecognized arguments: --bogus"),
        (["check", "--config", str(CONFIG_DIR / "xindep.yaml"),
          "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
        # no prefix of an option stands for it
        (["effective", "--conf", str(CONFIG_DIR / "xindep.yaml")],
         "the following arguments are required: --config")],
        ids=["no-config", "unknown-option", "non-integer-seed",
             "no-command", "option-prefix"])
    def test_usage_error_exits_4_naming_the_argument(self, tmp_path,
                                                     monkeypatch, args,
                                                     named):
        monkeypatch.chdir(tmp_path)
        res = self.invoke(*args)
        assert res.exit_code == 4
        assert res.stderr == f"config error: {named}\n"
        assert res.stdout == "" and os.listdir(tmp_path) == []

    def test_config_that_is_a_directory_exits_4(self, tmp_path):
        res = self.invoke("check", "--config", str(tmp_path),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 4
        assert res.stderr == f"config error: {tmp_path}: Is a directory\n"
        assert os.listdir(tmp_path) == []

    def test_config_that_is_not_text_exits_4(self, tmp_path):
        path = tmp_path / "binary.yaml"
        path.write_bytes(b"seeds: [0]\n\xff\n")
        res = self.invoke("check", "--config", str(path),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 4
        assert res.stderr == (f"config error: {path}: not UTF-8 text "
                              f"(invalid start byte)\n")

    def test_file_where_a_run_directory_belongs_exits_4(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        res = self.invoke("check", "--config",
                          str(CONFIG_DIR / "xindep.yaml"),
                          "--out", str(blocker))
        assert res.exit_code == 4 and str(blocker) in res.stderr
        res = self.invoke("plotdata", str(blocker))
        assert res.exit_code == 4 and str(blocker) in res.stderr
        assert os.listdir(tmp_path) == ["file"]

    def test_interrupt_exits_1_with_aborted(self, tmp_path, monkeypatch):
        def interrupted(cfg, out_dir=None):
            raise KeyboardInterrupt
        monkeypatch.setattr("minmax_hj.cli.run_check", interrupted)
        res = self.invoke("check", "--config",
                          str(CONFIG_DIR / "xindep.yaml"),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 1
        assert (res.stdout, res.stderr) == ("", "\nAborted!\n")

    def test_closed_output_pipe_exits_1_quietly(self, tmp_path):
        # the reader is gone before the first line is written; stdout is
        # block-buffered, so that the unwritten line is still in its
        # buffer when the interpreter flushes it on the way out
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONUNBUFFERED"}
        cmd = subprocess.Popen(
            [sys.executable, "-m", "minmax_hj.cli", "check", "--config",
             str(CONFIG_DIR / "xindep.yaml"), "--out", str(tmp_path / "run")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(env, PYTHONPATH=SRC_DIR))
        cmd.stdout.close()
        try:
            assert cmd.wait(timeout=120) == 1
            assert cmd.stderr.read() == b""
        finally:
            cmd.kill()
            cmd.wait(timeout=10)
            cmd.stderr.close()

    def test_closed_captured_pipe_exits_1(self, tmp_path, monkeypatch):
        # a captured stdout has no file descriptor to point at devnull
        def closed(cfg, out_dir=None):
            raise BrokenPipeError
        monkeypatch.setattr("minmax_hj.cli.run_check", closed)
        res = self.invoke("check", "--config",
                          str(CONFIG_DIR / "xindep.yaml"),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 1
        assert (res.stdout, res.stderr) == ("", "")

    def test_importing_the_cli_loads_neither_click_nor_scipy(self):
        # a fresh interpreter, so that nothing else has imported either
        probe = ("import sys\n"
                 "import minmax_hj.cli\n"
                 "print(sorted({name.partition('.')[0] for name in "
                 "sys.modules} & {'click', 'scipy'}))\n")
        res = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=SRC_DIR), timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"
