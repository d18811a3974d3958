"""Config loading, the experiment runner, and the CLI.

Heavy numerics live in the solver and effective-curve tests; here the
configs are kept small so each command runs in well under a second,
except where a shipped fixture is exercised end to end.
"""

import copy
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from minmax_hj import __version__, harness
from minmax_hj.cli import main
from minmax_hj.config import ExperimentConfig, U0_CATALOGUE
from minmax_hj.errors import (ConfigError, MinMaxHJError, MonotonicityError,
                              ProfileShapeError, RunLockError, StabilityError)
from minmax_hj.family import LevelHamiltonian
from minmax_hj.media import sample_realization
from minmax_hj.harness import (RunLock, analyze_hypotheses, gate_passed,
                               run_check, run_effective, run_plotdata,
                               run_sweep_eps)
from minmax_hj.solver import RETRY

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

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
        "pairs": {"x_nodes": 16, "p_box": [-4.0, 4.0], "n_p": 513},
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
    "evolution.t_samples", "pairs.x_nodes", "pairs.p_box", "pairs.n_p"]


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

    def test_pairs_bounds(self):
        data = small_config(pairs={"x_nodes": 2, "n_p": 513})
        with pytest.raises(ConfigError, match="pairs"):
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

    def test_u0_catalogue_values(self):
        cfg = ExperimentConfig(small_config(solver={"n": 256, "length": 4.0}))
        x = np.array([0.0, 0.5, 2.5, 3.75])
        # distance to 0 on the circle of circumference 4, clipped at 1
        np.testing.assert_allclose(cfg.u0_values(x), [0.0, 0.5, 1.0, 0.25])
        assert set(U0_CATALOGUE) == {"clipped_abs", "cosine", "constant",
                                     "plateau_bump"}

    def test_x_nodes_cover_one_period(self):
        cfg = ExperimentConfig(small_config())
        nodes = cfg.x_nodes()
        assert nodes.shape == (16,)
        assert nodes[0] == 0.0 and nodes[-1] < cfg.medium_spec.period

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
        data = small_config()
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
        ("pairs.p_box", 3), ("pairs.n_p", None), ("evolution.T", "x"),
        ("medium.period", "x"), ("medium.channels", 5),
        ("medium.channels[0].amplitude", "x"), ("family.hats[0].scale", "x"),
        ("family.checks[0].channel", "a"), ("seeds", [-1]),
        ("pairs.p_box", [4.0, -4.0]), ("solver.n", 256.5)])
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
            ExperimentConfig(data)
        except ConfigError as err:
            field = "medium.dim" if dim != 1 \
                else f"family.{role}[0].profile.center"
            assert field in str(err)

    @settings(max_examples=300, deadline=None, database=None)
    @given(path=st.sampled_from(FUZZED_FIELDS), value=ANY_YAML)
    def test_fuzzed_fields_load_or_name_the_field(self, path, value):
        data = copy.deepcopy(BASE_CASE)
        set_path(data, path, value)
        try:
            ExperimentConfig(data)
        except ConfigError as err:
            assert path in str(err)

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_fuzzed_nested_fields_load_or_name_the_field(self, data):
        changes, fields = data.draw(st.sampled_from(NESTED_FIELDS))
        path = data.draw(st.sampled_from(fields))
        value = data.draw(ANY_YAML)
        config = copy.deepcopy(BASE_CASE)
        for at, new in changes.items():
            set_path(config, at, copy.deepcopy(new))
        ExperimentConfig(config)        # each variant loads as it is
        set_path(config, path, value)
        try:
            ExperimentConfig(config)
        except ConfigError as err:
            assert path in str(err)

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


class TestHypothesisStage:
    def test_base_pair_all_verdicts_pass(self):
        cfg = ExperimentConfig(small_config())
        analysis = analyze_hypotheses(cfg)
        assert all(analysis["verdicts"].values())
        assert gate_passed(analysis["verdicts"])
        np.testing.assert_allclose(analysis["constants"]["m_bar"], [1.0])
        np.testing.assert_allclose(analysis["constants"]["M_lower"], [1.0])

    def test_unstable_fixture_fails_stability_only(self):
        cfg = load_fixture("unstable_pair.yaml")
        analysis = analyze_hypotheses(cfg)
        v = analysis["verdicts"]
        assert not v["stable_pairs"]
        assert v["ordering"] and v["contact_monotonicity"]
        assert not gate_passed(v)
        w = analysis["witnesses"]["stable_pairs"][0]
        assert w["level"] == 1 and w["variation"] > w["tau_b"]

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


class TestRunEffective:
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
        assert list(stats["per_p"]) == ["family"]
        rows = stats["per_p"]["family"]
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

    def test_numeric_curve_is_checked_for_continuity(self, monkeypatch):
        # a jump of 1 where the Lipschitz bound 1 allows 0.25 + 2e-2
        cfg = ExperimentConfig(small_config())

        def jumpy(hamiltonian, p, medium, lams, grid, theta):
            return {"value": np.abs(p) + (np.arange(len(p)) == 12),
                    "error_bar": np.zeros(len(p)),
                    "reliable": np.ones(len(p), dtype=bool)}
        monkeypatch.setattr(harness, "estimate_effective", jumpy)
        ham = LevelHamiltonian(cfg.family, 1)
        medium = sample_realization(cfg.medium_spec, 0)
        assert ham.lipschitz(medium) == 1.0
        with pytest.raises(ProfileShapeError,
                           match="exceeds the continuity bound"):
            harness._numeric_curve(ham, cfg, medium, "coercive")

    def test_failed_manifest_write_leaves_no_manifest(self, tmp_path,
                                                      monkeypatch):
        def broken(*args, **kwargs):
            raise OSError("disk full")
        monkeypatch.setattr(harness.json, "dump", broken)
        cfg = load_fixture("xindep.yaml", output=str(tmp_path / "run"))
        with pytest.raises(OSError, match="disk full"):
            run_effective(cfg)
        left = sorted(p.name for p in (tmp_path / "run").iterdir())
        assert left == ["compare.csv", "formula.csv", "numeric.csv"]

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
        with pytest.raises(StabilityError):
            run_effective(cfg)
        assert not (tmp_path / "run" / ".lock").exists()

    def test_force_overrides_gate(self, tmp_path):
        cfg = load_fixture("unstable_pair.yaml", output=str(tmp_path / "run"))
        manifest = run_effective(cfg, force=True)
        assert not manifest["verdicts"]["stable_pairs"]
        assert (tmp_path / "run" / "compare.csv").exists()

    def test_gate_blocks_broken_chain(self, tmp_path):
        cfg = load_fixture("monotonicity_violation.yaml",
                           output=str(tmp_path / "run"))
        with pytest.raises(MonotonicityError) as err:
            run_effective(cfg)
        assert err.value.chain == "upper" and err.value.index == 1


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

    def test_gate_applies_to_sweep(self, tmp_path):
        cfg = load_fixture("unstable_pair.yaml", output=str(tmp_path / "run"))
        with pytest.raises(StabilityError):
            run_sweep_eps(cfg)


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

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no compare.csv"):
            run_plotdata(str(tmp_path))


class TestCLI:
    def setup_method(self):
        self.runner = CliRunner()

    def invoke(self, *args):
        return self.runner.invoke(main, list(args))

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

    def test_lock_of_a_live_process_exits_4(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text(str(os.getpid()))
        res = self.invoke("check", "--config",
                          str(CONFIG_DIR / "xindep.yaml"),
                          "--out", str(out))
        assert res.exit_code == 4
        assert "locked" in res.stderr
        assert (out / ".lock").read_text() == str(os.getpid())

    def test_locked_directory_exits_4(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text("held")
        res = self.invoke("check", "--config",
                          str(CONFIG_DIR / "xindep.yaml"),
                          "--out", str(out))
        assert res.exit_code == 4
        assert "locked" in res.stderr

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
        # draws (0.64, 0.27)
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
        assert "witness[ordering]" in res.stderr
        assert "seed 0: check pieces out of order at levels 1/2" \
            in res.stderr
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
        ("pairs.n_p", None, "pairs.n_p: None is not a whole number"),
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

    def test_small_p_box_exits_4(self, tmp_path):
        path = tmp_path / "box.yaml"
        data = yaml.safe_load((CONFIG_DIR / "base_case.yaml").read_text())
        data["pairs"]["p_box"] = [-0.8, 0.8]
        data["output"] = str(tmp_path / "run")
        path.write_text(yaml.safe_dump(data))
        res = self.invoke("check", "--config", str(path))
        assert res.exit_code == 4
        assert "pairs.p_box" in res.stderr

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

    @pytest.mark.parametrize("command", ["check", "effective"])
    def test_nonpositive_amplitude_exits_3_naming_the_node(self, tmp_path,
                                                           command):
        # 0.5 + cos(2 pi x) is first <= 0 at x = 3/8 among the ordering
        # probes x = k/8, where it is 0.5 - 1/sqrt(2)
        data = yaml.safe_load((CONFIG_DIR / "base_case.yaml").read_text())
        data["medium"]["channels"].append(
            {"formula": "cos", "amplitude": 1.0, "offset": 0.5})
        data["family"]["checks"][0].update(coupling="amplitude", channel=1)
        data["output"] = str(tmp_path / "run")
        path = tmp_path / "amplitude.yaml"
        path.write_text(yaml.safe_dump(data))
        res = self.invoke(command, "--config", str(path))
        assert res.exit_code == 3
        assert ("amplitude channel 1 has coefficient -0.207107 <= 0 at "
                "x=0.375") in res.stderr
        assert "witness" not in res.stderr

    def test_other_package_errors_exit_3(self, tmp_path, monkeypatch):
        def broken(cfg, out_dir=None):
            raise MinMaxHJError("no strictly monotone shift")
        monkeypatch.setattr("minmax_hj.cli.run_check", broken)
        res = self.invoke("check", "--config",
                          str(CONFIG_DIR / "xindep.yaml"),
                          "--out", str(tmp_path / "run"))
        assert res.exit_code == 3
        assert "no strictly monotone shift" in res.stderr

    def test_version_flag(self):
        res = self.invoke("--version")
        assert res.exit_code == 0 and __version__ in res.output
